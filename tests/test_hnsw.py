import heapq
import tracemalloc

import numpy as np
import pytest

from nwlearn import Rng
from nwlearn.errors import ContractError, DomainError
from nwlearn.hnsw import _BLOCK_ELEMS, HnswIndex
from nwlearn.tensor import smallest_k, sqdist


def exact_top(pts, row, k):
    return np.argsort(((pts - row) ** 2).sum(axis=1), kind="stable")[:k]


def clusters():
    # the 200 build candidates of every base-layer node lie in its own
    # cluster of 300, so only the upper layers link the clusters
    gen = np.random.default_rng(43)
    centers = gen.normal(size=(10, 16)) * 50.0
    pts = centers[np.arange(3000) % 10] + gen.normal(size=(3000, 16))
    queries = centers[np.arange(100) % 10] + gen.normal(size=(100, 16))
    return pts, queries


def reference_search(index, q, k, ef):
    """The heap beam search over numpy gathers of each expanded node's
    unvisited neighbours, on the index's layers and distance row."""
    dist = index._norms - 2.0 * (index.features @ q) + float(q @ q)
    cur = index._entry
    for layer in index._layers[:0:-1]:
        while layer[cur]:
            neigh = np.array(layer[cur])
            j = int(neigh[np.argmin(dist[neigh])])
            if dist[j] >= dist[cur]:
                break
            cur = j
    visited = np.zeros(len(dist), dtype=bool)
    visited[cur] = True
    worst = float(dist[cur])
    cand, best = [(worst, cur)], [(-worst, cur)]
    while cand:
        d, i = heapq.heappop(cand)
        if len(best) >= ef and d > worst:
            break
        neigh = np.array(index._layers[0][i], dtype=np.int64)
        ids = neigh[~visited[neigh]]
        visited[ids] = True
        for j, dj in zip(ids.tolist(), dist[ids].tolist()):
            if len(best) < ef:
                heapq.heappush(best, (-dj, j))
                heapq.heappush(cand, (dj, j))
            elif dj < worst:
                heapq.heapreplace(best, (-dj, j))
                heapq.heappush(cand, (dj, j))
            worst = -best[0][0]
    found = sorted((-nd, i) for nd, i in best)[:k]
    return np.array([i for _, i in found]), np.sqrt(np.maximum([d for d, _ in found], 0.0))


def reference_select(index, v, ids, cap):
    """The diversifying heuristic for one node v: in order of (distance to v,
    rotated id), keep a candidate only if it is no farther from v than from
    every already-kept one, each distance one matvec of one formula."""
    if len(ids) <= cap:
        return ids
    f = index.features[ids]
    norms = index._norms[ids]

    def dist_to(x, xx):
        return norms - 2.0 * (f @ x) + xx

    d_to_v = dist_to(index.features[v], index._norms[v])
    order = np.lexsort(((ids - v - 1) % len(index.features), d_to_v))
    f, norms, ids, d_to_v = f[order], norms[order], ids[order], d_to_v[order]
    min_to_kept = np.full(len(ids), np.inf)
    kept = [0]
    while len(kept) < cap:
        a = kept[-1]
        np.minimum(min_to_kept, dist_to(f[a], norms[a]), out=min_to_kept)
        ok = min_to_kept[a + 1:] >= d_to_v[a + 1:]
        if not ok.any():
            break
        kept.append(a + 1 + int(ok.argmax()))
    return ids[kept]


def reference_build_layer(index, members, cap):
    """One layer linked node by node: each member's ef_construction nearest
    other members by (distance, rotated id), from the same row blocks of
    distances as the build, its heuristic pick of m among them, then its
    heuristic pick of cap among its forward links and the reverse links."""
    n = len(index.features)
    adj = [[] for _ in range(n)]
    k = min(index.ef_construction, len(members) - 1)
    if k == 0:
        return adj
    feats = index.features[members]
    links = {v: set() for v in members.tolist()}
    rows = max(1, _BLOCK_ELEMS // len(members))
    for start in range(0, len(members), rows):
        d2 = sqdist(feats[start:start + rows], feats)
        block = np.arange(len(d2))
        d2[block, start + block] = np.inf
        pos = smallest_k(d2, k)
        for r, v in enumerate(members[start:start + rows].tolist()):
            if np.count_nonzero(d2[r] <= d2[r, pos[r, -1]]) > k:
                shift = start + r + 1
                pos[r] = (np.argsort(np.roll(d2[r], -shift), kind="stable")[:k] + shift) % len(members)
            for j in reference_select(index, v, members[pos[r]], index.m).tolist():
                links[v].add(j)
                links[j].add(v)
    for v, other in links.items():
        adj[v] = reference_select(index, v, np.array(sorted(other), dtype=np.int64), cap).tolist()
    return adj


def reference_build(index, rng):
    """(entry, layers) of the index rebuilt by the per-node reference, over
    the levels drawn from rng as the index draws them."""
    levels = (-np.log(rng.random(len(index))) * (1.0 / np.log(index.m))).astype(np.int64)
    layers = [reference_build_layer(index, np.flatnonzero(levels >= lc), index.m0 if lc == 0 else index.m)
              for lc in range(int(levels.max()) + 1)]
    return int(np.argmax(levels)), layers


def test_build_is_deterministic_given_the_rng():
    pts = np.random.default_rng(40).normal(size=(500, 8))
    a, b = HnswIndex(pts, rng=Rng(41)), HnswIndex(pts, rng=Rng(41))
    assert a._entry == b._entry
    assert len(a._layers) == len(b._layers) > 1
    assert a._layers == b._layers


def eval_modes_like():
    # features of a trained net over 3000 rows: a few overlapping class and
    # environment clusters, stretched along some directions
    gen = np.random.default_rng(52)
    centers = gen.normal(size=(6, 16)) * 2.0
    return (centers[gen.integers(0, 6, size=3000)] + gen.normal(size=(3000, 16))) * gen.uniform(0.2, 3.0, size=16)


def line_and_cloud():
    # every third id on a line, where the heuristic keeps one or two
    # neighbours, the others in a far cloud, where it keeps up to cap: the
    # rows of one heuristic block finish many steps apart, so the block
    # holds finished rows for a while and is compacted part-way
    gen = np.random.default_rng(57)
    line = np.zeros((400, 8))
    line[:, 0] = np.arange(400) * 0.01
    return np.where(np.arange(400)[:, None] % 3 == 0, line, gen.normal(size=(400, 8)) + 40.0)


def build_inputs():
    gen = np.random.default_rng(53)
    row = np.array([0.5, -1.25, 2.0, 3.0])
    yield gen.uniform(size=(500, 8)), {}
    yield clusters()[0], {}
    round_off = np.random.default_rng(45)
    for _ in range(40):
        yield np.tile(round_off.normal(size=6), (50, 1)), {}
    yield np.tile(row, (40, 1)), {}
    yield np.tile(row, (300, 1)), {}
    for ef in (1, 3, 30):
        yield gen.normal(size=(300, 8)), {"m": 2, "ef_construction": ef}
    yield eval_modes_like(), {}
    yield line_and_cloud(), {}


def test_build_matches_the_per_node_reference():
    for seed, (pts, params) in enumerate(build_inputs()):
        index = HnswIndex(pts, rng=Rng(seed), **params)
        entry, layers = reference_build(index, Rng(seed))
        assert index._entry == entry
        assert index._layers == layers
    # a top layer of one or two members
    index = HnswIndex(np.random.default_rng(54).normal(size=(60, 8)), rng=Rng(55))
    for members in ([17], [3, 41]):
        members = np.array(members)
        assert index._build_layer(members, index.m) == reference_build_layer(index, members, index.m)


def test_heuristic_rows_that_finish_early_match_the_per_node_reference():
    pts = line_and_cloud()
    index = HnswIndex(pts, rng=Rng(0))
    ids = np.argsort(sqdist(pts, pts), axis=1, kind="stable")[:, 1:201]
    for cap in (index.m, index.m0):
        out = index._select_heuristic(np.arange(len(pts)), ids, cap)
        for v, row in enumerate(out.tolist()):
            kept = reference_select(index, v, ids[v], cap).tolist()
            assert row == kept + [-1] * (cap - len(kept))


def test_build_peak_memory_stays_bounded():
    # the distance blocks and the candidate gathers stream, so the peak
    # (9.6 MB here) stays near a node-by-node heuristic's (8.5 MB)
    pts = np.random.default_rng(45).normal(size=(3000, 16))
    tracemalloc.start()
    try:
        HnswIndex(pts, rng=Rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_tiny_and_identical_inputs_return_k_ids_in_id_order_at_distance_zero():
    row = np.array([0.5, -1.25, 2.0, 3.0])
    for n in (1, 2, 50):
        pts = np.tile(row, (n, 1))
        index = HnswIndex(pts, rng=Rng(42))
        for k in {1, min(n, 20)}:
            ids, dist = index.search(row, k)
            assert ids.tolist() == list(range(k))
            assert (dist == 0.0).all()


def test_every_identical_row_is_reachable():
    # beyond ef_construction + 1 rows the build's candidate lists tie too
    row = np.array([0.5, -1.25, 2.0, 3.0])
    for n in (40, 60, 100, 300):
        ids, dist = HnswIndex(np.tile(row, (n, 1)), rng=Rng(46)).search(row, n)
        assert ids.tolist() == list(range(n))
        assert (dist == 0.0).all()


def test_duplicates_under_round_off_stay_reachable():
    # rows whose squared norms round: every link test between duplicates
    # must still tie, or the graph collapses onto the lowest ids
    gen = np.random.default_rng(45)
    for seed in range(40):
        row = gen.normal(size=6)
        ids, dist = HnswIndex(np.tile(row, (50, 1)), rng=Rng(seed)).search(row, 20)
        assert len(set(ids.tolist())) == 20
        assert dist.max() < 1e-6


@pytest.mark.parametrize("data", ["uniform", "clusters", "round_off"])
def test_search_matches_the_reference_beam_search(data):
    gen = np.random.default_rng(47)
    if data == "uniform":
        pts, queries = gen.uniform(size=(1000, 16)), gen.uniform(size=(20, 16))
    elif data == "clusters":
        pts, queries = clusters()
        queries = queries[:20]
    else:
        row = gen.normal(size=6)
        pts, queries = np.tile(row, (300, 1)), np.vstack([row, row + 1e-9, gen.normal(size=(3, 6))])
    index = HnswIndex(pts, rng=Rng(48))
    for k in (1, 20, 100):
        for ef in (k, 100, 200):
            for row in queries:
                ids, dist = index.search(row, k, ef_search=ef)
                ref_ids, ref_dist = reference_search(index, row, k, max(ef, k))
                assert np.array_equal(ids, ref_ids)
                assert np.array_equal(dist, ref_dist)


def test_non_finite_features_and_queries_raise_domain_error():
    pts = np.random.default_rng(49).normal(size=(30, 4))
    for bad in (np.nan, np.inf, -np.inf):
        broken = pts.copy()
        broken[7, 2] = bad
        with pytest.raises(DomainError):
            HnswIndex(broken)
        with pytest.raises(DomainError):
            HnswIndex(pts).search(np.array([0.0, bad, 0.0, 0.0]), 5)


def test_k_bounds_and_ef_search_below_k():
    pts = np.random.default_rng(50).normal(size=(60, 4))
    index = HnswIndex(pts, rng=Rng(51))
    for k in (0, len(pts) + 1):
        with pytest.raises(ContractError):
            index.search(pts[0], k)
    ids, dist = index.search(pts[0], 50, ef_search=10)
    assert len(set(ids.tolist())) == 50
    lifted = index.search(pts[0], 50, ef_search=50)
    assert np.array_equal(ids, lifted[0]) and np.array_equal(dist, lifted[1])


def test_recall_on_far_apart_clusters():
    pts, queries = clusters()
    index = HnswIndex(pts, rng=Rng(44))
    hits = sum(len(set(index.search(row, 20)[0].tolist()) & set(exact_top(pts, row, 20).tolist()))
               for row in queries)
    assert hits / (len(queries) * 20) >= 0.95
