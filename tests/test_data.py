import numpy as np
import pytest

from nwlearn import Rng
from nwlearn.data import Dataset, LabeledExample
from nwlearn.errors import ContractError
from nwlearn.scmgen import spurious_benchmark


def _assert_same_dataset(a: Dataset, b: Dataset):
    for name in ("X", "y", "e"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (a.n_classes, a.env_ids, a.n_envs, len(a)) == (b.n_classes, b.env_ids, b.n_envs, len(b))
    for name in ("by_class", "by_env", "by_env_class"):
        got, want = getattr(a, name), getattr(b, name)
        assert list(got) == list(want)
        assert all(got[k].dtype == want[k].dtype and np.array_equal(got[k], want[k]) for k in want)
    assert (a.latents is None) == (b.latents is None)
    if a.latents is not None:
        assert all(np.array_equal(za, zb) for za, zb in zip(a.latents, b.latents))


def test_from_arrays_equals_dataset_of_examples():
    gen = np.random.default_rng(0)
    n = 50
    X, y, e = gen.normal(size=(n, 3)), gen.integers(0, 3, size=n), gen.choice([0, 4, 7], size=n)
    examples = [LabeledExample(x=X[i], y=int(y[i]), e=int(e[i])) for i in range(n)]
    for n_classes in (None, 5):
        _assert_same_dataset(Dataset.from_arrays(X, y, e, n_classes=n_classes),
                             Dataset(examples, n_classes=n_classes))


def test_from_arrays_equals_dataset_of_examples_with_latents():
    train, _, _ = spurious_benchmark(True, Rng(1), n_train=90, n_val=30, n_test=30)
    rebuilt = Dataset(train.examples, n_classes=train.n_classes)
    _assert_same_dataset(train, rebuilt)
    for ex, x, zc, zs in zip(rebuilt.examples, train.X, *train.latents):
        assert np.array_equal(ex.x, x) and np.array_equal(ex.latent_zc, zc) and np.array_equal(ex.latent_zs, zs)
    _assert_same_dataset(train.subset([5, 1, 1]), Dataset([train.examples[i] for i in (5, 1, 1)], 2))


def test_example_rows_are_read_only_views():
    ds = Dataset.from_arrays(np.arange(6.0).reshape(3, 2), [0, 1, 0], [2, 2, 3])
    ex = ds.examples[1]
    assert (ex.x.tolist(), ex.y, ex.e, ex.latent_zc) == ([2.0, 3.0], 1, 2, None)
    assert ds.examples is ds.examples
    with pytest.raises(ValueError):
        ex.x[0] = 9.0


@pytest.mark.parametrize("columns, n_classes", [
    ((np.zeros((0, 2)), [], []), None),                # no rows
    ((np.zeros((2, 2)), [0, 1, 0], [0, 0, 0]), None),  # misaligned labels
    ((np.zeros(2), [0, 1], [0, 0]), None),             # X not a matrix
    ((np.zeros((2, 2)), [0, -1], [0, 0]), None),       # negative class
    ((np.zeros((2, 2)), [0, 1], [0, -3]), None),       # negative environment
    ((np.zeros((2, 2)), [0, 2], [0, 0]), 2),           # class beyond n_classes
])
def test_from_arrays_rejects_bad_columns(columns, n_classes):
    with pytest.raises(ContractError):
        Dataset.from_arrays(*columns, n_classes=n_classes)
