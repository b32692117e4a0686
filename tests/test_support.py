import numpy as np
import pytest

from nwlearn import Rng
from nwlearn.data import Dataset, LabeledExample
from nwlearn.errors import ConfigError, ContractError, CoverageError, ShapeError
from nwlearn.nwhead import nw_predict
from nwlearn.support import (
    SupportSpec,
    sample_balanced_query_batch,
    sample_env_pair,
    sample_query_batch,
    sample_support,
)


def make_dataset(rng, n=60, n_classes=3, n_envs=2, dim=4, skip=()):
    """Random dataset; (env, class) pairs listed in ``skip`` stay empty."""
    examples = []
    i = 0
    while len(examples) < n:
        y = int(rng.integers(0, n_classes))
        e = int(rng.integers(0, n_envs))
        if (e, y) in skip:
            continue
        examples.append(LabeledExample(x=rng.normal(size=dim), y=y, e=e))
        i += 1
    # guarantee every non-skipped bucket is populated
    for e in range(n_envs):
        for y in range(n_classes):
            if (e, y) not in skip:
                examples.append(LabeledExample(x=rng.normal(size=dim), y=y, e=e))
    return Dataset(examples, n_classes=n_classes)


def test_balanced_counts():
    ds = make_dataset(np.random.default_rng(0))
    rows = sample_support(ds, SupportSpec(balanced=True, n_per_class=2), {0, 1, 2}, Rng(1))
    assert rows.dtype == np.int64 and len(rows) == 6
    assert np.bincount(ds.y[rows], minlength=3).tolist() == [2, 2, 2]


def test_env_conditioning_filters_rows():
    ds = make_dataset(np.random.default_rng(1))
    rows = sample_support(ds, SupportSpec(balanced=True, env=1, n_per_class=3), {0}, Rng(2))
    assert (ds.e[rows] == 1).all()


def test_empty_bucket_raises_coverage_error_with_pair():
    ds = make_dataset(np.random.default_rng(2), skip={(0, 2)})
    with pytest.raises(CoverageError) as exc:
        sample_support(ds, SupportSpec(balanced=True, env=0, n_per_class=2), {2}, Rng(3))
    assert exc.value.env == 0
    assert exc.value.class_id == 2


def test_query_label_outside_classes_raises_coverage_error():
    ds = make_dataset(np.random.default_rng(3))
    with pytest.raises(CoverageError):
        sample_support(ds, SupportSpec(balanced=True, n_per_class=2), {7}, Rng(4))


def test_missing_env_rejected():
    ds = make_dataset(np.random.default_rng(4))
    with pytest.raises(ConfigError):
        sample_support(ds, SupportSpec(balanced=True, env=9, n_per_class=2), {0}, Rng(5))


@pytest.mark.parametrize("balanced", [True, False])
@pytest.mark.parametrize("n_per_class", [0, -1])
def test_support_size_below_one_rejected(balanced, n_per_class):
    with pytest.raises(ConfigError, match="n_per_class"):
        SupportSpec(balanced=balanced, n_per_class=n_per_class)


def test_small_bucket_samples_with_replacement():
    # env 0 / class 0 has exactly one example after construction
    examples = [LabeledExample(x=np.zeros(2), y=0, e=0)]
    for _ in range(10):
        examples.append(LabeledExample(x=np.ones(2), y=1, e=0))
    ds = Dataset(examples, n_classes=2)
    rows = sample_support(ds, SupportSpec(balanced=True, n_per_class=4), {0, 1}, Rng(6))
    assert np.bincount(ds.y[rows], minlength=2).tolist() == [4, 4]


def test_unbalanced_covers_every_class_then_fills():
    ds = make_dataset(np.random.default_rng(5), n=200)
    rows = sample_support(ds, SupportSpec(balanced=False, n_per_class=8), {0, 1, 2}, Rng(7))
    assert len(rows) == 24
    counts = np.bincount(ds.y[rows], minlength=3)
    assert (counts >= 1).all()
    # fill is without replacement: no duplicate rows
    assert len(np.unique(rows)) == len(rows)


def test_balanced_support_label_distribution_is_uniform():
    ds = make_dataset(np.random.default_rng(7), n=300)
    rows = sample_support(ds, SupportSpec(balanced=True, n_per_class=50), {0}, Rng(9))
    counts = np.bincount(ds.y[rows], minlength=3)
    assert counts.tolist() == [50, 50, 50]


def test_supports_built_from_outside_are_validated():
    with pytest.raises(ContractError):
        nw_predict(np.zeros((1, 3)), np.zeros((2, 3)), np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        nw_predict(np.zeros((1, 3)), np.zeros((2, 3)), np.eye(3))


def test_env_pair_distinct_envs():
    ds = make_dataset(np.random.default_rng(8), n_envs=2)
    a, b = sample_env_pair(ds, 2, {0, 1, 2}, Rng(10))
    ea, eb = set(ds.e[a].tolist()), set(ds.e[b].tolist())
    assert len(ea) == 1 and len(eb) == 1
    assert ea != eb


def test_env_pair_needs_two_envs():
    ds = make_dataset(np.random.default_rng(9), n_envs=1)
    with pytest.raises(ConfigError):
        sample_env_pair(ds, 2, {0}, Rng(11))


def test_env_pair_frequencies_uniform_chi_square():
    # 3 envs -> 3 unordered pairs, each should appear ~1/3 of 3000 draws
    ds = make_dataset(np.random.default_rng(10), n=300, n_envs=3)
    rng = Rng(12)
    counts = {}
    for _ in range(3000):
        a, b = sample_env_pair(ds, 1, {0, 1, 2}, rng)
        pair = frozenset((int(ds.e[a[0]]), int(ds.e[b[0]])))
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 3
    expected = 1000.0
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square with 2 dof: p > 0.01 <=> chi2 < 9.21
    assert chi2 < 9.21


def test_query_batch_full_size_is_permutation():
    ds = make_dataset(np.random.default_rng(11), n=20)
    batch = sample_query_batch(ds, len(ds), Rng(13))
    xs = sorted(batch.tolist())
    assert xs == list(range(len(ds)))


def test_query_batch_reproducible():
    ds = make_dataset(np.random.default_rng(12), n=50)
    a = sample_query_batch(ds, 10, Rng(14))
    b = sample_query_batch(ds, 10, Rng(14))
    assert ds.y[a].tolist() == ds.y[b].tolist()
    assert all(xa == xb for xa, xb in zip(a, b))


def test_query_batch_size_checks():
    ds = make_dataset(np.random.default_rng(13), n=20)
    with pytest.raises(ConfigError):
        sample_query_batch(ds, 0, Rng(15))
    with pytest.raises(ConfigError):
        sample_query_batch(ds, len(ds) + 1, Rng(15))


def test_query_batch_class_frequencies_match_dataset():
    ds = make_dataset(np.random.default_rng(14), n=500)
    rng = Rng(16)
    counts = np.zeros(ds.n_classes)
    draws = 10000
    batch_size = 5
    for _ in range(draws // batch_size):
        for i in sample_query_batch(ds, batch_size, rng):
            counts[ds.y[i]] += 1
    freq = counts / counts.sum()
    target = ds.class_counts() / len(ds)
    assert np.abs(freq - target).max() < 0.02


def test_balanced_query_batch_equal_class_counts():
    ds = make_dataset(np.random.default_rng(15), n=200, n_classes=2, n_envs=3)
    batch = sample_balanced_query_batch(ds, 12, Rng(17))
    ys = np.bincount(ds.y[batch], minlength=2)
    assert ys.tolist() == [6, 6]


def test_sampler_contracts_property_sweep():
    # 1000 random dataset/spec pairs: exact per-class counts, env purity,
    # and CoverageError exactly when a required bucket is empty
    gen = np.random.default_rng(99)
    rng = Rng(100)
    for trial in range(1000):
        n_classes = int(gen.integers(2, 5))
        n_envs = int(gen.integers(1, 4))
        skip = set()
        if gen.random() < 0.4:
            skip.add((int(gen.integers(0, n_envs)), int(gen.integers(0, n_classes))))
        ds = make_dataset(gen, n=int(gen.integers(10, 40)), n_classes=n_classes,
                          n_envs=n_envs, skip=skip)
        env = int(gen.integers(0, n_envs)) if gen.random() < 0.6 else None
        n_per_class = int(gen.integers(1, 5))
        query_labels = set(
            int(c) for c in gen.choice(n_classes, size=int(gen.integers(1, n_classes + 1)), replace=False)
        )
        spec = SupportSpec(balanced=True, env=env, n_per_class=n_per_class)

        required_empty = [
            (e, c)
            for (e, c) in ([(env, c) for c in range(n_classes)] if env is not None else [])
            if len(ds.by_env_class[(e, c)]) == 0
        ]
        if env is None:
            required_empty = [c for c in range(n_classes) if len(ds.by_class[c]) == 0]

        if required_empty:
            with pytest.raises(CoverageError):
                sample_support(ds, spec, query_labels, rng)
            continue
        rows = sample_support(ds, spec, query_labels, rng)
        counts = np.bincount(ds.y[rows], minlength=n_classes)
        assert (counts == n_per_class).all()
        assert query_labels <= set(ds.y[rows].tolist())
        if env is not None:
            assert (ds.e[rows] == env).all()


def _setdiff_unbalanced_draw(ds, spec, rng):
    """The unbalanced branch of sample_support written with np.setdiff1d."""
    total = spec.n_per_class * ds.n_classes
    cover = [int(rng.choice(ds.by_class[c] if spec.env is None else ds.by_env_class[(spec.env, c)]))
             for c in range(ds.n_classes)]
    pool = ds.by_env[spec.env] if spec.env is not None else np.arange(len(ds))
    remaining = np.setdiff1d(pool, np.array(cover, dtype=np.int64))
    fill_n = total - len(cover)
    if fill_n <= len(remaining):
        fill = rng.choice(remaining, size=fill_n, replace=False)
    else:
        fill = rng.choice(pool, size=fill_n, replace=True)
    return np.concatenate([np.array(cover, dtype=np.int64), fill.astype(np.int64)])


@pytest.mark.parametrize("env, n, n_per_class", [(None, 200, 8), (1, 200, 8), (0, 12, 8)])
def test_unbalanced_draw_matches_setdiff_form(env, n, n_per_class):
    # the last case has fewer env-0 rows than the support size: the fill
    # falls back to drawing with replacement
    ds = make_dataset(np.random.default_rng(30), n=n)
    spec = SupportSpec(balanced=False, env=env, n_per_class=n_per_class)
    if env is not None:
        assert (len(ds.by_env[env]) < n_per_class * ds.n_classes) == (n < 100)
    for seed in range(20):
        rows = sample_support(ds, spec, {0, 1, 2}, Rng(seed))
        assert np.array_equal(rows, _setdiff_unbalanced_draw(ds, spec, Rng(seed)))


def test_query_batches_are_int64_row_indices():
    ds = make_dataset(np.random.default_rng(18), n=60, n_classes=2, n_envs=2)
    for draw in (sample_query_batch, sample_balanced_query_batch):
        batch = draw(ds, 7, Rng(19))
        assert batch.dtype == np.int64 and batch.shape == (7,)
        assert ((batch >= 0) & (batch < len(ds))).all()


def test_balanced_query_batch_matches_the_cycling_loop():
    # small cells and an empty one, so draws wrap around inside a cell
    ds = make_dataset(np.random.default_rng(20), n=12, n_classes=3, n_envs=2, skip={(1, 2)})
    for n_q in (1, 5, 12, 40):
        got = sample_balanced_query_batch(ds, n_q, Rng(21))
        rng = Rng(21)
        cells = [rng.permutation(ds.by_env_class[(env, c)]) for env in ds.env_ids
                 for c in range(ds.n_classes) if len(ds.by_env_class[(env, c)])]
        picked, offsets, cell_i = [], [0] * len(cells), 0
        while len(picked) < n_q:
            bucket = cells[cell_i]
            picked.append(int(bucket[offsets[cell_i] % len(bucket)]))
            offsets[cell_i] += 1
            cell_i = (cell_i + 1) % len(cells)
        assert got.tolist() == picked
