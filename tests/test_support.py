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
    rows = sample_support(ds, SupportSpec(balanced=True, n_per_class=2), Rng(1))
    assert rows.dtype == np.int64 and len(rows) == 6
    assert np.bincount(ds.y[rows], minlength=3).tolist() == [2, 2, 2]


def test_env_conditioning_filters_rows():
    ds = make_dataset(np.random.default_rng(1))
    rows = sample_support(ds, SupportSpec(balanced=True, env=1, n_per_class=3), Rng(2))
    assert (ds.e[rows] == 1).all()


def test_empty_bucket_raises_coverage_error_with_pair():
    ds = make_dataset(np.random.default_rng(2), skip={(0, 2)})
    with pytest.raises(CoverageError) as exc:
        sample_support(ds, SupportSpec(balanced=True, env=0, n_per_class=2), Rng(3))
    assert exc.value.env == 0
    assert exc.value.class_id == 2


def test_missing_env_rejected():
    ds = make_dataset(np.random.default_rng(4))
    with pytest.raises(ConfigError):
        sample_support(ds, SupportSpec(balanced=True, env=9, n_per_class=2), Rng(5))


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
    rows = sample_support(ds, SupportSpec(balanced=True, n_per_class=4), Rng(6))
    assert np.bincount(ds.y[rows], minlength=2).tolist() == [4, 4]


def test_unbalanced_covers_every_class_then_fills():
    ds = make_dataset(np.random.default_rng(5), n=200)
    rows = sample_support(ds, SupportSpec(balanced=False, n_per_class=8), Rng(7))
    assert len(rows) == 24
    counts = np.bincount(ds.y[rows], minlength=3)
    assert (counts >= 1).all()
    # fill is without replacement: no duplicate rows
    assert len(np.unique(rows)) == len(rows)


def test_balanced_support_label_distribution_is_uniform():
    ds = make_dataset(np.random.default_rng(7), n=300)
    rows = sample_support(ds, SupportSpec(balanced=True, n_per_class=50), Rng(9))
    counts = np.bincount(ds.y[rows], minlength=3)
    assert counts.tolist() == [50, 50, 50]


def _pinned_data():
    ds = make_dataset(np.random.default_rng(40), n=60, n_classes=3, n_envs=2)
    # class 0 has one row
    short = Dataset([LabeledExample(x=np.zeros(2), y=0, e=0)]
                    + [LabeledExample(x=np.ones(2), y=1, e=0) for _ in range(10)], n_classes=2)
    return ds, short


# Rows recorded for fixed seeds, two draws per stream: a change to what the
# samplers draw from the rng, or in what order, moves them.
@pytest.mark.parametrize("short, spec, seed, expected", [
    pytest.param(False, SupportSpec(n_per_class=3), 1,
                 [[7, 14, 27, 58, 0, 54, 11, 53, 13], [35, 57, 28, 50, 55, 10, 9, 47, 22]], id="balanced"),
    pytest.param(False, SupportSpec(env=1, n_per_class=3), 2,
                 [[36, 56, 49, 59, 55, 0, 43, 16, 32], [27, 30, 12, 64, 55, 54, 38, 8, 43]], id="env"),
    pytest.param(False, SupportSpec(balanced=False, n_per_class=4), 3,
                 [[39, 0, 13, 8, 61, 59, 27, 48, 12, 34, 22, 57], [35, 29, 38, 28, 51, 19, 25, 20, 47, 41, 26, 54]],
                 id="unbalanced"),
    pytest.param(True, SupportSpec(n_per_class=4), 4,
                 [[0, 0, 0, 0, 7, 4, 8, 10], [0, 0, 0, 0, 6, 4, 8, 10]], id="short_bucket_with_replacement"),
])
def test_support_rows_are_pinned(short, spec, seed, expected):
    data, rng = _pinned_data()[short], Rng(seed)
    assert [sample_support(data, spec, rng).tolist() for _ in expected] == expected


def test_env_pair_rows_are_pinned():
    ds, _ = _pinned_data()
    rng = Rng(5)
    assert [[rows.tolist() for rows in sample_env_pair(ds, 2, rng)] for _ in range(2)] == [
        [[14, 60, 48, 42, 18, 2], [12, 31, 54, 59, 47, 34]],
        [[12, 56, 0, 58, 65, 16], [7, 60, 46, 48, 3, 2]],
    ]


def test_query_batch_rows_are_pinned():
    ds, _ = _pinned_data()
    rng = Rng(6)
    assert [sample_query_batch(ds, 7, rng).tolist() for _ in range(2)] == [
        [3, 44, 22, 10, 40, 33, 38], [33, 15, 11, 49, 16, 26, 44]]


def test_supports_built_from_outside_are_validated():
    with pytest.raises(ContractError):
        nw_predict(np.zeros((1, 3)), np.zeros((2, 3)), np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        nw_predict(np.zeros((1, 3)), np.zeros((2, 3)), np.eye(3))


def test_env_pair_distinct_envs():
    ds = make_dataset(np.random.default_rng(8), n_envs=2)
    a, b = sample_env_pair(ds, 2, Rng(10))
    ea, eb = set(ds.e[a].tolist()), set(ds.e[b].tolist())
    assert len(ea) == 1 and len(eb) == 1
    assert ea != eb


def test_env_pair_needs_two_envs():
    ds = make_dataset(np.random.default_rng(9), n_envs=1)
    with pytest.raises(ConfigError):
        sample_env_pair(ds, 2, Rng(11))


def test_env_pair_frequencies_uniform_chi_square():
    # 3 envs -> 3 unordered pairs, each should appear ~1/3 of 3000 draws
    ds = make_dataset(np.random.default_rng(10), n=300, n_envs=3)
    rng = Rng(12)
    counts = {}
    for _ in range(3000):
        a, b = sample_env_pair(ds, 1, rng)
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
                sample_support(ds, spec, rng)
            continue
        rows = sample_support(ds, spec, rng)
        counts = np.bincount(ds.y[rows], minlength=n_classes)
        assert (counts == n_per_class).all()
        assert set(ds.y[rows].tolist()) == set(range(n_classes))
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
        rows = sample_support(ds, spec, Rng(seed))
        assert np.array_equal(rows, _setdiff_unbalanced_draw(ds, spec, Rng(seed)))


def test_query_batches_are_int64_row_indices():
    ds = make_dataset(np.random.default_rng(18), n=60, n_classes=2, n_envs=2)
    for draw in (sample_query_batch, sample_balanced_query_batch):
        batch = draw(ds, 7, Rng(19))
        assert batch.dtype == np.int64 and batch.shape == (7,)
        assert ((batch >= 0) & (batch < len(ds))).all()


def _balanced_query_loop(ds, n_q, rng):
    """The balanced query draw as a plain loop: one rank per fresh visit, in
    pick order, from one ``integers`` call; visit j of a cell of L rows pops
    the rank-th of the cell's rows not yet taken, and later visits repeat."""
    cells = [list(ds.by_env_class[(env, c)]) for env in ds.env_ids for c in range(ds.n_classes)
             if len(ds.by_env_class[(env, c)])]
    n = len(cells)
    fresh = [k for k in range(n_q) if k // n < len(cells[k % n])]
    ranks = rng.integers(0, [len(cells[k % n]) - k // n for k in fresh])
    untaken, picks = [list(cell) for cell in cells], [[] for _ in cells]
    for k, r in zip(fresh, ranks):
        picks[k % n].append(int(untaken[k % n].pop(r)))
    return [picks[k % n][(k // n) % len(cells[k % n])] for k in range(n_q)]


def test_balanced_query_batch_matches_the_cycling_loop():
    # small cells and an empty one, so draws wrap around inside a cell
    ds = make_dataset(np.random.default_rng(20), n=12, n_classes=3, n_envs=2, skip={(1, 2)})
    for n_q in (1, 5, 12, 40):
        for seed in range(21, 26):
            got = sample_balanced_query_batch(ds, n_q, Rng(seed))
            assert got.tolist() == _balanced_query_loop(ds, n_q, Rng(seed))


def _one_env_cells(*sizes):
    """A one-environment dataset whose class c holds ``sizes[c]`` consecutive rows."""
    y = np.repeat(np.arange(len(sizes)), sizes)
    return Dataset.from_arrays(np.zeros((len(y), 1)), y, np.zeros(len(y), dtype=np.int64))


def test_balanced_query_batch_first_visits_are_uniform():
    # cells {0, 1, 2} and {3, 4}; four picks take two visits of each cell,
    # so each of the 3 * 2 * 2 * 1 = 12 ordered outcomes has probability 1/12
    ds, draws, rng = _one_env_cells(3, 2), 6000, Rng(40)
    counts = {}
    for _ in range(draws):
        outcome = tuple(sample_balanced_query_batch(ds, 4, rng).tolist())
        counts[outcome] = counts.get(outcome, 0) + 1
    expected = {(a, b, c, d) for a in range(3) for c in range(3) if c != a for b, d in ((3, 4), (4, 3))}
    assert set(counts) == expected
    # each count within 5 binomial standard deviations of draws / 12 (about 107 of 500)
    sd = np.sqrt(draws * (1 / 12) * (11 / 12))
    assert max(abs(v - draws / 12) for v in counts.values()) < 5 * sd


def test_balanced_query_batch_cycles_through_its_picks():
    # class 0 has 5 rows and class 1 has 3; 14 picks visit each cell 7 times
    ds = _one_env_cells(5, 3)
    for seed in range(10):
        batch = sample_balanced_query_batch(ds, 14, Rng(seed)).tolist()
        first, second = batch[0::2], batch[1::2]
        assert sorted(first[:5]) == [0, 1, 2, 3, 4] and first[5:] == first[:2]
        assert sorted(second[:3]) == [5, 6, 7] and second[3:] == second[:3] + second[:1]
