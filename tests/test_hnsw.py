import numpy as np

from nwlearn import Rng
from nwlearn.hnsw import HnswIndex


def exact_top(pts, row, k):
    return np.argsort(((pts - row) ** 2).sum(axis=1), kind="stable")[:k]


def test_build_is_deterministic_given_the_rng():
    pts = np.random.default_rng(40).normal(size=(500, 8))
    a, b = HnswIndex(pts, rng=Rng(41)), HnswIndex(pts, rng=Rng(41))
    assert a._entry == b._entry
    assert len(a._layers) == len(b._layers) > 1
    for la, lb in zip(a._layers, b._layers):
        assert np.array_equal(la.nbr, lb.nbr)
        assert np.array_equal(la.cnt, lb.cnt)


def test_tiny_and_identical_inputs_return_k_ids_in_id_order_at_distance_zero():
    row = np.array([0.5, -1.25, 2.0, 3.0])
    for n in (1, 2, 50):
        pts = np.tile(row, (n, 1))
        index = HnswIndex(pts, rng=Rng(42))
        for k in {1, min(n, 20)}:
            ids, dist = index.search(row, k)
            assert ids.tolist() == list(range(k))
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


def test_recall_on_far_apart_clusters():
    # the 200 build candidates of every base-layer node lie in its own
    # cluster of 300, so only the upper layers link the clusters
    gen = np.random.default_rng(43)
    centers = gen.normal(size=(10, 16)) * 50.0
    pts = centers[np.arange(3000) % 10] + gen.normal(size=(3000, 16))
    queries = centers[np.arange(100) % 10] + gen.normal(size=(100, 16))
    index = HnswIndex(pts, rng=Rng(44))
    hits = sum(len(set(index.search(row, 20)[0].tolist()) & set(exact_top(pts, row, 20).tolist()))
               for row in queries)
    assert hits / (len(queries) * 20) >= 0.95
