import tracemalloc

import numpy as np
import pytest

from nwlearn import Rng
from nwlearn.data import Dataset, LabeledExample
from nwlearn.errors import ConfigError, ContractError, CoverageError, DomainError
from nwlearn.featnet import FeatureNet, _fit_logistic, logistic_head
from nwlearn.infer import (
    FeatureCache,
    InferenceMode,
    _exact_neighbors,
    build_cache,
    dump_neighbors,
    knn_predict,
    predict,
    train_probe,
)
from nwlearn.kmeans import kmeans
from nwlearn.nwhead import _VOTE_BLOCK, nw_predict, nw_vote, nw_vote_shared, onehot
from nwlearn.scmgen import spurious_benchmark
from nwlearn.support import SupportSpec, sample_support
from nwlearn.tensor import Tensor, smallest_k, softmax, sqdist


def nw_head(q, feats, labels, n_classes):
    return nw_predict(Tensor(q), feats, onehot(labels, n_classes)).data


def make_cache(n=60, dim=5, n_classes=3, n_envs=2, seed=0, balanced=False):
    gen = np.random.default_rng(seed)
    feats = gen.normal(size=(n, dim))
    if balanced:
        labels = np.arange(n) % n_classes
    else:
        labels = gen.integers(0, n_classes, size=n)
        labels[:n_classes] = np.arange(n_classes)
    envs = gen.integers(0, n_envs, size=n)
    return FeatureCache(feats, labels, envs, n_classes)


def test_mode_defaults():
    assert InferenceMode("random").k == 3
    assert InferenceMode("cluster").k == 3
    assert InferenceMode("knn").k == 20
    assert InferenceMode("hnsw").k == 20
    assert InferenceMode("full").k is None
    with pytest.raises(ConfigError):
        InferenceMode("centroid")
    with pytest.raises(ConfigError):
        InferenceMode("knn", k=0)


def test_build_cache_matches_extract():
    gen = np.random.default_rng(1)
    examples = [
        LabeledExample(x=gen.normal(size=4), y=int(gen.integers(0, 2)), e=int(gen.integers(0, 2)))
        for _ in range(10)
    ]
    ds = Dataset(examples, n_classes=2)
    net = FeatureNet((4, 6, 3), Rng(2))
    cache = build_cache(net, ds)
    assert len(cache) == 10
    assert np.abs(cache.features - net.extract(ds.X).data).max() == 0.0
    again = build_cache(net, ds)
    assert (again.features == cache.features).all()


def test_build_cache_shares_the_dataset_buckets():
    gen = np.random.default_rng(3)
    ds = Dataset.from_arrays(gen.normal(size=(90, 4)), gen.integers(0, 3, size=90),
                             gen.integers(0, 3, size=90), 3)
    assert len(ds.examples) == 90  # built before the cache, so the cache must not inherit them
    net = FeatureNet((4, 6, 3), Rng(4))
    cache = build_cache(net, ds)
    assert cache.labels is ds.y and cache.envs is ds.e and cache.env_ids is ds.env_ids
    for buckets in ("by_class", "by_env", "by_env_class"):
        ours, theirs = getattr(cache, buckets), getattr(ds, buckets)
        assert ours.keys() == theirs.keys() and all(ours[k] is theirs[k] for k in theirs)
    assert np.array_equal(cache.examples[5].x, cache.features[5])

    from_columns = FeatureCache(cache.features.copy(), ds.y.copy(), ds.e.copy(), ds.n_classes)
    q = gen.normal(size=(7, 3))
    for label in ("random", "full", "ensemble", "cluster", "knn", "hnsw"):
        mode = InferenceMode(label)
        assert np.array_equal(predict(mode, cache, q, rng=Rng(5)), predict(mode, from_columns, q, rng=Rng(5)))
    assert np.array_equal(knn_predict(cache, q, k=90), knn_predict(from_columns, q, k=90))


def test_all_modes_emit_valid_simplices():
    cache = make_cache()
    q = np.random.default_rng(3).normal(size=(7, 5))
    for kind in ("random", "full", "ensemble", "cluster", "knn", "hnsw"):
        probs = predict(InferenceMode(kind), cache, q, rng=Rng(4))
        assert probs.shape == (7, 3)
        assert (probs >= -1e-12).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_full_mode_invariant_to_row_order():
    cache = make_cache(seed=5)
    q = np.random.default_rng(6).normal(size=(4, 5))
    base = predict(InferenceMode("full"), cache, q)
    perm = np.random.default_rng(7).permutation(len(cache))
    shuffled = FeatureCache(cache.features[perm], cache.labels[perm], cache.envs[perm], cache.n_classes)
    assert np.abs(predict(InferenceMode("full"), shuffled, q) - base).max() < 1e-12


def test_random_mode_k_per_class():
    cache = make_cache(seed=8)
    # pull the support assembly through a single-query NW prediction: with
    # k per class and duplicated rows allowed, we just check determinism
    a = predict(InferenceMode("random", k=2), cache, np.zeros((1, 5)), rng=Rng(9))
    b = predict(InferenceMode("random", k=2), cache, np.zeros((1, 5)), rng=Rng(9))
    assert (a == b).all()
    # the same draws voted by the taped NW head
    rng = Rng(9)
    idx = np.concatenate([rng.choice(bucket, size=2, replace=False)
                          for _, bucket in sorted(cache.by_class.items())])
    expected = nw_head(np.zeros((1, 5)), cache.features[idx], cache.labels[idx], cache.n_classes)
    assert np.abs(a - expected).max() < 1e-12


def test_random_mode_draws_a_short_class_with_replacement_through_the_sampler(caplog):
    # class 2 has one cached row against k = 3
    feats = np.random.default_rng(44).normal(size=(13, 5))
    labels = np.array([0] * 6 + [1] * 6 + [2])
    cache = FeatureCache(feats, labels, np.zeros(13, dtype=int), 3)
    q = np.random.default_rng(45).normal(size=(4, 5))
    with caplog.at_level("WARNING"):
        got = predict(InferenceMode("random", k=3), cache, q, rng=Rng(46))
    warnings = [rec for rec in caplog.records if rec.levelname == "WARNING"]
    assert [rec.name for rec in warnings] == ["nwlearn.support"]
    assert "with replacement" in warnings[0].getMessage()
    rows = sample_support(cache, SupportSpec(n_per_class=3), Rng(46))
    assert list(rows[6:]) == [12, 12, 12]
    assert np.array_equal(got, nw_vote_shared(q, cache.features[rows], onehot(cache.labels[rows], 3)))


def test_ensemble_env_missing_a_class_votes_balanced_over_its_own_rows(caplog):
    gen = np.random.default_rng(47)
    feats = gen.normal(size=(30, 4))
    labels = np.arange(30) % 3
    envs = np.array([0] * 15 + [1] * 15)
    labels[15:][labels[15:] == 2] = 0  # environment 1 has no row of class 2
    cache = FeatureCache(feats, labels, envs, 3)
    q = gen.normal(size=(5, 4))
    with caplog.at_level("WARNING"):
        got = predict(InferenceMode("ensemble"), cache, q)
    per_env = [reference_vote(q, feats[envs == env], labels[envs == env], 3, balanced=True) for env in (0, 1)]
    assert per_env[1][:, 2].max() == 0.0
    assert np.abs(got - np.mean(per_env, axis=0)).max() < 1e-12
    warnings = [rec.getMessage() for rec in caplog.records if rec.levelname == "WARNING"]
    assert len(warnings) == 1 and "environment 1 " in warnings[0]


@pytest.mark.parametrize("kind", ["full", "random", "cluster"])
def test_empty_class_raises_the_samplers_coverage_error(kind):
    cache = FeatureCache(np.zeros((4, 2)), np.array([0, 0, 2, 2]), np.zeros(4, dtype=int), 3)
    with pytest.raises(CoverageError, match=r"^no examples of class 1$") as info:
        predict(InferenceMode(kind), cache, np.zeros((1, 2)), rng=Rng(48))
    assert info.value.class_id == 1 and info.value.env is None


def test_ensemble_identical_env_predictions_is_identity():
    # two environments with identical per-env supports -> mean equals each
    feats = np.array([[0.0, 0.0], [1.0, 1.0]] * 2)
    labels = np.array([0, 1, 0, 1])
    envs = np.array([0, 0, 1, 1])
    cache = FeatureCache(feats, labels, envs, 2)
    q = np.array([[0.2, 0.2]])
    single = FeatureCache(feats[:2], labels[:2], envs[:2], 2)
    expected = predict(InferenceMode("full"), single, q)
    got = predict(InferenceMode("ensemble"), cache, q)
    assert np.abs(got - expected).max() < 1e-12


def test_ensemble_is_arithmetic_mean():
    # construct caches whose per-env predictions we can compute directly
    gen = np.random.default_rng(10)
    feats = gen.normal(size=(20, 3))
    labels = np.arange(20) % 2
    envs = np.array([0] * 10 + [1] * 10)
    cache = FeatureCache(feats, labels, envs, 2)
    q = gen.normal(size=(3, 3))
    per_env = []
    for env in (0, 1):
        members = envs == env
        sub = FeatureCache(feats[members], labels[members], envs[members], 2)
        per_env.append(predict(InferenceMode("full"), sub, q))
    got = predict(InferenceMode("ensemble"), cache, q)
    assert np.abs(got - np.mean(per_env, axis=0)).max() < 1e-12


def test_cluster_identical_features_collapse_to_that_feature():
    feats = np.vstack([np.tile([1.0, 2.0], (5, 1)), np.tile([-1.0, 0.0], (5, 1))])
    labels = np.array([0] * 5 + [1] * 5)
    cache = FeatureCache(feats, labels, np.zeros(10, dtype=int), 2)
    probs = predict(InferenceMode("cluster", k=2), cache, np.array([[1.0, 2.0]]), rng=Rng(11))
    # query sits exactly on class 0's collapsed centroid
    assert probs[0, 0] > 0.7


def test_cluster_k_equal_bucket_size_reproduces_full_prediction_on_balanced_cache():
    cache = make_cache(n=24, n_classes=3, balanced=True, seed=12)
    bucket = len(cache) // 3
    q = np.random.default_rng(13).normal(size=(5, 5))
    full = predict(InferenceMode("full"), cache, q)
    clustered = predict(InferenceMode("cluster", k=bucket), cache, q, rng=Rng(14))
    assert np.abs(clustered - full).max() < 1e-9


def test_cluster_mode_is_the_nw_head_on_per_class_centroids():
    cache = make_cache(seed=34)
    q = np.random.default_rng(35).normal(size=(4, 5))
    got = predict(InferenceMode("cluster", k=3), cache, q, rng=Rng(36))
    rng = Rng(36)
    centroids = [kmeans(cache.features[bucket], 3, rng)[0] for _, bucket in sorted(cache.by_class.items())]
    labels = np.repeat(np.arange(cache.n_classes), 3)
    assert np.abs(got - nw_head(q, np.concatenate(centroids), labels, cache.n_classes)).max() < 1e-12


def test_cluster_k_reduced_to_bucket_size_with_warning(caplog):
    cache = make_cache(n=12, n_classes=3, balanced=True, seed=15)
    with caplog.at_level("WARNING"):
        probs = predict(InferenceMode("cluster", k=50), cache, np.zeros((1, 5)), rng=Rng(16))
    assert probs.shape == (1, 3)
    assert any("reducing" in rec.message for rec in caplog.records)


def test_knn_self_retrieval():
    cache = make_cache(seed=17)
    probs = knn_predict(cache, cache.features[4:5], k=1)
    assert probs[0].argmax() == cache.labels[4]
    assert probs[0].max() == pytest.approx(1.0)


def test_knn_k_equals_cache_size_matches_unbalanced_full():
    cache = make_cache(seed=18)
    q = np.random.default_rng(19).normal(size=(6, 5))
    got = knn_predict(cache, q, k=len(cache), exact=True)
    expected = nw_predict(Tensor(q), cache.features, onehot(cache.labels, cache.n_classes)).data
    assert np.abs(got - expected).max() < 1e-9


def test_numpy_vote_and_distance_match_the_taped_head():
    gen = np.random.default_rng(37)
    q, feats = gen.normal(size=(6, 5)), gen.normal(size=(40, 5))
    y = gen.integers(0, 3, size=40)
    # the taped vote, exact k-NN, k-means and the HNSW build read sqdist:
    # its bits are the written-out expansion, for one query row as for many
    for rows in (q, q[:1]):
        aa, bb = (rows * rows).sum(axis=1)[:, None], (feats * feats).sum(axis=1)
        assert np.array_equal(sqdist(rows, feats), np.maximum((aa + bb) - 2.0 * (rows @ feats.T), 0.0))
    logits = -np.sqrt(sqdist(q, feats))
    shared = nw_vote_shared(q, feats, onehot(y, 3))
    assert np.abs(shared - nw_vote(logits, np.broadcast_to(onehot(y, 3), (6, 40, 3)))).max() < 1e-12
    assert np.abs(shared - nw_head(q, feats, y, 3)).max() < 1e-12
    with pytest.raises(ContractError):
        nw_vote(logits, onehot(y, 3))


def reference_vote(q, feats, labels, n_classes, balanced=False):
    """softmax(-distance + log w) @ onehot, with w = max_count / count of
    the row's class when ``balanced``; distances by explicit differences."""
    logits = -np.sqrt(((q[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2))
    if balanced:
        counts = np.bincount(labels, minlength=n_classes)
        logits = logits + np.log(counts.max() / counts[labels])
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (w / w.sum(axis=1, keepdims=True)) @ np.eye(n_classes)[labels]


def shared_support_cases(cache, q):
    """(mode label, predict output, independent reference) for every mode
    that votes over one support shared by every query."""
    rng = Rng(41)
    idx = np.concatenate([rng.choice(bucket, size=3, replace=False)
                          for _, bucket in sorted(cache.by_class.items())])
    random_ref = reference_vote(q, cache.features[idx], cache.labels[idx], cache.n_classes)
    rng = Rng(42)
    centroids = np.concatenate([kmeans(cache.features[bucket], 3, rng)[0]
                                for _, bucket in sorted(cache.by_class.items())])
    cluster_ref = reference_vote(q, centroids, np.repeat(np.arange(cache.n_classes), 3), cache.n_classes)
    per_env = [reference_vote(q, cache.features[cache.envs == env], cache.labels[cache.envs == env],
                              cache.n_classes, balanced=True) for env in cache.env_ids]
    n = len(cache)
    return [
        ("full", predict(InferenceMode("full"), cache, q),
         reference_vote(q, cache.features, cache.labels, cache.n_classes, balanced=True)),
        ("knn", predict(InferenceMode("knn", n), cache, q),
         reference_vote(q, cache.features, cache.labels, cache.n_classes)),
        ("random", predict(InferenceMode("random", 3), cache, q, rng=Rng(41)), random_ref),
        ("cluster", predict(InferenceMode("cluster", 3), cache, q, rng=Rng(42)), cluster_ref),
        ("ensemble", predict(InferenceMode("ensemble"), cache, q), np.mean(per_env, axis=0)),
    ]


# one block and two, each short by a row, whole and with a one-row tail
@pytest.mark.parametrize("nq", [1, _VOTE_BLOCK - 1, _VOTE_BLOCK, _VOTE_BLOCK + 1,
                                2 * _VOTE_BLOCK - 1, 2 * _VOTE_BLOCK, 2 * _VOTE_BLOCK + 1, 0])
def test_shared_support_modes_match_an_independent_vote(nq):
    # unbalanced classes, and environment 1 has no row of class 2
    gen = np.random.default_rng(43)
    labels = np.array([0] * 40 + [1] * 25 + [2] * 15)
    envs = np.array([0] * 30 + [1] * 10 + [0] * 10 + [1] * 15 + [0] * 15)
    cache = FeatureCache(gen.normal(size=(80, 5)) + labels[:, None], labels, envs, 3)
    assert len(cache.by_env_class[(1, 2)]) == 0
    q = gen.normal(size=(nq, 5))
    for label, got, expected in shared_support_cases(cache, q):
        assert got.shape == (nq, 3), label
        assert np.abs(got - expected).max(initial=0.0) < 1e-12, label


def test_shared_support_vote_of_a_far_query_is_a_finite_simplex():
    cache = make_cache(seed=44)
    far = np.full((2, 5), 500.0)
    assert np.sqrt(sqdist(far, cache.features)).min() > 800
    # copies of cached rows: the vote's one-GEMM squared distance to such a
    # row can round below 0 before the clip
    q = np.concatenate([far, cache.features[[15, 16, 45]]])
    for label, got, expected in shared_support_cases(cache, q):
        assert np.isfinite(got).all(), label
        assert (got >= 0).all() and np.abs(got.sum(axis=1) - 1.0).max() < 1e-12, label
        assert np.abs(got - expected).max() < 1e-9, label


def on_sphere(gen, n, radius):
    directions = gen.normal(size=(n, 5))
    return radius * directions / np.linalg.norm(directions, axis=1, keepdims=True)


def assert_shared_votes_are_the_softmax(q, feats, labels, n_classes=3):
    """nw_vote_shared, unweighted and with the full mode's class weights,
    is a finite simplex within 1e-12 of the independent reference vote."""
    counts = np.bincount(labels, minlength=n_classes)
    for weights, balanced in ((None, False), (counts.max() / counts, True)):
        got = nw_vote_shared(q, feats, onehot(labels, n_classes), weights)
        assert np.isfinite(got).all() and np.abs(got.sum(axis=1) - 1.0).max() < 1e-12, balanced
        assert np.abs(got - reference_vote(q, feats, labels, n_classes, balanced)).max() < 1e-12, balanced


def test_shared_vote_over_a_far_support_is_the_softmax():
    gen = np.random.default_rng(46)
    feats = on_sphere(gen, 50, 800.0) + gen.normal(size=(50, 5))
    labels = gen.integers(0, 3, size=50)
    labels[:3] = np.arange(3)
    q = np.zeros((1, 5))
    # a bare exp(-distance) underflows to 0 on every support row
    assert (np.exp(-np.sqrt(sqdist(q, feats))) == 0.0).all()
    assert_shared_votes_are_the_softmax(q, feats, labels)


def test_shared_vote_of_a_block_mixing_near_and_far_queries_is_the_softmax():
    gen = np.random.default_rng(47)
    feats, labels = gen.normal(size=(60, 5)), np.arange(60) % 3
    half = _VOTE_BLOCK // 2
    q = np.concatenate([gen.normal(size=(half, 5)), on_sphere(gen, half, 800.0)])[gen.permutation(_VOTE_BLOCK)]
    underflows = (np.exp(-np.sqrt(sqdist(q, feats))) == 0.0).all(axis=1)
    assert underflows.sum() == half
    assert_shared_votes_are_the_softmax(q, feats, labels)


def test_full_mode_peak_memory_stays_below_one_distance_matrix():
    gen = np.random.default_rng(45)
    cache = FeatureCache(gen.normal(size=(3000, 16)), gen.integers(0, 2, size=3000),
                         gen.integers(0, 2, size=3000), 2)
    q = gen.normal(size=(2000, 16))
    full_matrix = 2000 * 3000 * 8  # one (nq, m) float64 matrix: 48 MB
    tracemalloc.start()
    try:
        predict(InferenceMode("full"), cache, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_matrix / 16  # the vote holds one (block, m) buffer


def test_shared_support_votes_at_the_benchmark_shape_match_a_vote_on_sqdist():
    train, val, _ = spurious_benchmark(True, Rng(0))
    net = FeatureNet((train.X.shape[1], 64, 64, 16), Rng(1))
    cache = build_cache(net, train)
    q = net.extract(val.X).data
    assert q.shape == (600, 16) and len(cache) == 3000
    logits = -np.sqrt(sqdist(q, cache.features))
    counts = np.bincount(cache.labels, minlength=cache.n_classes)
    labels = onehot(cache.labels, cache.n_classes)
    for label, got, lg in [
        ("full", predict(InferenceMode("full"), cache, q), logits + np.log(counts.max() / counts[cache.labels])),
        ("knn", predict(InferenceMode("knn", len(cache)), cache, q), logits),
    ]:
        expected = softmax(lg) @ labels
        assert np.abs(got - expected).max() < 1e-12, label
        assert np.array_equal(got.argmax(axis=1), expected.argmax(axis=1)), label


def test_knn_bounds():
    cache = make_cache()
    with pytest.raises(ContractError):
        knn_predict(cache, np.zeros((1, 5)), k=0)
    with pytest.raises(ContractError):
        knn_predict(cache, np.zeros((1, 5)), k=len(cache) + 1)


def test_short_hnsw_result_raises_coverage_error():
    class ShortIndex:  # a graph that reaches fewer than k rows
        def search(self, row, k):
            return np.arange(k - 7), np.zeros(k - 7)

    cache = FeatureCache(np.ones((60, 4)), np.arange(60) % 2, np.zeros(60, dtype=int), 2)
    with pytest.raises(CoverageError, match=r"found 33 ids .* k = 40"):
        knn_predict(cache, np.ones((1, 4)), k=40, exact=False, index=ShortIndex())


def test_hnsw_matches_exact_on_most_queries():
    gen = np.random.default_rng(20)
    cache = FeatureCache(gen.uniform(size=(100, 16)), gen.integers(0, 2, size=100),
                         np.zeros(100, dtype=int), 2)
    queries = gen.uniform(size=(100, 16))
    from nwlearn.hnsw import HnswIndex
    index = HnswIndex(cache.features, rng=Rng(21))
    same = 0
    for row in queries:
        approx, _ = index.search(row, 20)
        d = ((cache.features - row) ** 2).sum(axis=1)
        exact = np.argsort(d, kind="stable")[:20]
        same += set(approx.tolist()) == set(exact.tolist())
    assert same >= 95


def test_probe_trains_to_separate_linear_features():
    gen = np.random.default_rng(22)
    feats = np.vstack([gen.normal(size=(30, 4)) + 3.0, gen.normal(size=(30, 4)) - 3.0])
    labels = np.array([0] * 30 + [1] * 30)
    cache = FeatureCache(feats, labels, np.zeros(60, dtype=int), 2)
    probe = train_probe(cache)
    pred = predict(InferenceMode("probe"), cache, feats, probe=probe).argmax(axis=1)
    assert (pred == labels).mean() == 1.0


def test_probe_single_class_always_predicts_it():
    gen = np.random.default_rng(24)
    feats = gen.normal(size=(20, 3))
    cache = FeatureCache(feats, np.zeros(20, dtype=int), np.zeros(20, dtype=int), 2)
    probe = train_probe(cache)
    assert (predict(InferenceMode("probe"), cache, feats, probe=probe).argmax(axis=1) == 0).all()


@pytest.mark.parametrize("reg", [0.02, 1e-3])
def test_logistic_head_columns_are_the_solvers_one_vs_rest_fits(reg):
    cache = make_cache(seed=23)
    head = logistic_head(cache.features, cache.labels, cache.n_classes, reg)
    for c in range(cache.n_classes):
        w, b = _fit_logistic(cache.features, cache.labels == c, reg=reg)
        assert head.weights[0].data[:, c].tobytes() == w.tobytes()
        assert head.biases[0].data[c].tobytes() == b.tobytes()


def test_train_probe_is_the_optimum_of_the_ridge_logistic_objective():
    # per class: mean log-loss of sigmoid(x w + b) against labels == c, plus 0.02 / 2 |w|^2
    cache = make_cache(seed=30)
    probe = train_probe(cache)
    x = cache.features
    for c in range(cache.n_classes):
        w, b = probe.weights[0].data[:, c], probe.biases[0].data[c]
        p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
        residual = p - (cache.labels == c)
        grad = np.r_[x.T @ residual / len(x) + 0.02 * w, residual.mean()]
        assert np.abs(grad).max() <= 1e-10


def test_two_class_probe_softmax_is_the_fitted_sigmoid():
    # one fit of class 1, halved into the columns (-z/2, z/2)
    gen = np.random.default_rng(32)
    feats = gen.normal(size=(80, 4))
    labels = (feats[:, 0] + gen.normal(size=80) > 0).astype(int)
    cache = FeatureCache(feats, labels, np.zeros(80, dtype=int), 2)
    probe = train_probe(cache)
    w, b = _fit_logistic(feats, labels == 1, reg=0.02)
    assert (2.0 * probe.weights[0].data[:, 1]).tobytes() == w.tobytes() and 2.0 * probe.biases[0].data[1] == b
    q = gen.normal(size=(50, 4))
    probs = predict(InferenceMode("probe"), cache, q, probe=probe)
    assert np.abs(probs[:, 1] - 1.0 / (1.0 + np.exp(-(q @ w + b)))).max() <= 1e-12


def test_probe_on_a_cache_of_class_1_alone_predicts_class_1():
    feats = np.random.default_rng(31).normal(size=(20, 3))
    cache = FeatureCache(feats, np.ones(20, dtype=int), np.zeros(20, dtype=int), 2)
    probe = train_probe(cache)  # the solver alone would raise LinAlgError here
    assert (predict(InferenceMode("probe"), cache, feats, probe=probe).argmax(axis=1) == 1).all()


@pytest.mark.parametrize("label, n_classes", [(0, 2), (2, 3)])
def test_probe_on_a_cache_of_one_class_predicts_that_class(label, n_classes):
    # two classes derive class 0's column from class 1's fit; three fit each column
    feats = np.random.default_rng(33).normal(size=(20, 3))
    cache = FeatureCache(feats, np.full(20, label), np.zeros(20, dtype=int), n_classes)
    probe = train_probe(cache)
    assert (predict(InferenceMode("probe"), cache, feats, probe=probe).argmax(axis=1) == label).all()


def test_probe_mode_requires_head():
    cache = make_cache()
    with pytest.raises(ContractError):
        predict(InferenceMode("probe"), cache, np.zeros((1, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", ["random", "full", "ensemble", "cluster", "knn", "knn_all", "hnsw", "probe",
                                  "dump_neighbors"])
def test_non_finite_query_features_raise_domain_error(call, bad):
    cache = make_cache(seed=27)
    q = np.random.default_rng(28).normal(size=(4, 5))
    q[2, 1] = bad
    with pytest.raises(DomainError):
        if call == "dump_neighbors":
            dump_neighbors(cache, q, top_k=5)
        else:
            mode = InferenceMode("knn", len(cache)) if call == "knn_all" else InferenceMode(call)
            predict(mode, cache, q, rng=Rng(29), probe=train_probe(cache))


def test_dump_neighbors_sorted_and_matches_bruteforce():
    cache = make_cache(seed=25)
    q = np.random.default_rng(26).normal(size=(3, 5))
    neighbors, histogram = dump_neighbors(cache, q, top_k=len(cache))
    assert sum(histogram.values()) == pytest.approx(1.0)
    for qi, entry in enumerate(neighbors):
        dists = [d for _, d, _, _ in entry]
        assert dists == sorted(dists)
        # brute-force oracle: full sorted distance list
        d = np.sqrt(((cache.features - q[qi]) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")
        assert [i for i, _, _, _ in entry] == order.tolist()


def test_exact_neighbors_break_boundary_ties_toward_lower_index():
    # every row appears twice (rows i and i + 30), and odd k puts one twin on
    # each side of position k; integer features make the tied distances exact
    gen = np.random.default_rng(28)
    base = gen.integers(-2, 3, size=(30, 4)).astype(np.float64)
    feats = np.concatenate([base, base])
    labels = gen.integers(0, 3, size=60)
    cache = FeatureCache(feats, labels, gen.integers(0, 2, size=60), 3)
    q = gen.integers(-2, 3, size=(8, 4)).astype(np.float64)
    d = ((feats[None, :, :] - q[:, None, :]) ** 2).sum(axis=2)
    for k in (1, 7, 21):
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        neighbors, _ = dump_neighbors(cache, q, top_k=k)
        assert [[i for i, _, _, _ in entry] for entry in neighbors] == order.tolist()
        expected = np.stack([nw_head(q[i:i + 1], feats[order[i]], labels[order[i]], 3)[0]
                             for i in range(len(q))])
        assert np.abs(knn_predict(cache, q, k) - expected).max() < 1e-12


def test_exact_neighbors_in_query_blocks_match_one_distance_matrix():
    # 1, 64, 65 and 129 queries: a short block, one whole block, and whole
    # blocks with a 1-row tail; every cached row appears twice, so distances
    # tie. At this cache size a product per block of 64 queries rounds some
    # rows differently from the product over every query.
    gen = np.random.default_rng(30)
    base = gen.normal(size=(150, 16))
    feats = np.concatenate([base, base])
    cache = FeatureCache(feats, np.arange(300) % 2, np.zeros(300, dtype=int), 2)
    queries = gen.normal(size=(129, 16))
    for n in (1, 64, 65, 129):
        q = queries[:n]
        d2 = sqdist(q, feats)
        want = smallest_k(d2, 20)
        idx, dist = _exact_neighbors(cache, q, 20)
        assert np.array_equal(idx, want)
        assert dist.tobytes() == np.sqrt(np.take_along_axis(d2, want, axis=1)).tobytes()


def test_dump_neighbors_single_env_histogram_is_one_hot():
    cache = make_cache(n_envs=1, seed=27)
    _, histogram = dump_neighbors(cache, np.zeros((2, 5)), top_k=5)
    assert histogram == {0: 1.0}


def test_missing_class_bucket_raises_coverage_error():
    feats = np.zeros((4, 2))
    cache = FeatureCache(feats, np.zeros(4, dtype=int), np.zeros(4, dtype=int), 2)
    with pytest.raises(CoverageError):
        predict(InferenceMode("full"), cache, np.zeros((1, 2)))


# -- k-means ----------------------------------------------------------------


def test_kmeans_objective_nonincreasing():
    gen = np.random.default_rng(28)
    pts = np.vstack([gen.normal(size=(40, 3)) + c for c in (-4, 0, 4)])
    _, _, history = kmeans(pts, 3, Rng(29))
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_kmeans_k_equals_n_distinct_points_returns_points():
    gen = np.random.default_rng(30)
    pts = gen.normal(size=(8, 2))
    centroids, assign, _ = kmeans(pts, 8, Rng(31))
    assert sorted(map(tuple, centroids.tolist())) == sorted(map(tuple, pts.tolist()))
    assert sorted(assign.tolist()) == list(range(8))


def test_kmeans_bad_k():
    pts = np.zeros((4, 2))
    with pytest.raises(ConfigError):
        kmeans(pts, 0, Rng(0))
    with pytest.raises(ConfigError):
        kmeans(pts, 5, Rng(0))


def test_kmeans_deterministic_given_rng():
    gen = np.random.default_rng(32)
    pts = gen.normal(size=(30, 4))
    a, _, _ = kmeans(pts, 4, Rng(33))
    b, _, _ = kmeans(pts, 4, Rng(33))
    assert (a == b).all()
