import heapq

import numpy as np
import pytest

from nwlearn import Rng
from nwlearn.errors import ContractError, DomainError
from nwlearn.hnsw import HnswIndex


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


def test_build_is_deterministic_given_the_rng():
    pts = np.random.default_rng(40).normal(size=(500, 8))
    a, b = HnswIndex(pts, rng=Rng(41)), HnswIndex(pts, rng=Rng(41))
    assert a._entry == b._entry
    assert len(a._layers) == len(b._layers) > 1
    assert a._layers == b._layers


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
