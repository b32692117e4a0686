import numpy as np
import pytest

from nwlearn import Rng, grad_check
from nwlearn.errors import ContractError, DomainError, ShapeError
from nwlearn.featnet import FeatureNet
from nwlearn.nwhead import cross_entropy, nw_predict, onehot
from nwlearn.tensor import Tape, Tensor, backward, mul, scale, softmax_rows, sqdist, sum_all, take_rows
from taped_ops import log, matmul, shift, similarity


def test_similarity_zero_distance():
    a = Tensor([[1.0, 2.0]])
    assert similarity(a, Tensor([[1.0, 2.0]])).data.tolist() == [[0.0]]


def test_similarity_hand_value():
    out = similarity(Tensor([[0.0, 0.0]]), Tensor([[3.0, 4.0]]))
    assert out.data.tolist() == [[-5.0]]


def test_similarity_symmetric():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
    ab = similarity(Tensor(a), Tensor(b)).data
    ba = similarity(Tensor(b), Tensor(a)).data
    assert np.abs(ab - ba.T).max() == 0.0


def test_single_support_element_forces_its_class():
    probs = nw_predict(Tensor([[0.0, 0.0]]), np.array([[5.0, 5.0]]), onehot([0], 3)).data
    assert probs.tolist() == [[1.0, 0.0, 0.0]]


def test_equidistant_two_class_support_gives_half_half():
    probs = nw_predict(Tensor([[0.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]]), onehot([0, 1], 2)).data
    assert probs == pytest.approx(np.array([[0.5, 0.5]]))


def test_analytic_softmax_value():
    # class 0 at distance 0, class 1 at distance ln 3: e^0/(e^0 + e^-ln3) = 0.75
    d = np.log(3.0)
    probs = nw_predict(Tensor([[0.0]]), np.array([[0.0], [d]]), onehot([0, 1], 2)).data
    assert probs == pytest.approx(np.array([[0.75, 0.25]]), abs=1e-12)


def test_empty_support_rejected():
    with pytest.raises(ContractError):
        nw_predict(Tensor(np.zeros((1, 2))), np.zeros((0, 2)), np.zeros((0, 2)))


def _random_case(rng, n_q=4, n_s=12, dim=3, n_classes=3):
    q = rng.normal(size=(n_q, dim))
    s = rng.normal(size=(n_s, dim))
    labels = rng.integers(0, n_classes, size=n_s)
    labels[:n_classes] = np.arange(n_classes)  # every class present
    return q, s, onehot(labels, n_classes)


@pytest.mark.parametrize("seed", range(100))
def test_simplex_permutation_duplication_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    q, s, labels = _random_case(rng)
    probs = nw_predict(Tensor(q), s, labels).data

    # valid simplex rows
    assert (probs >= 0).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    # permuting support rows changes nothing
    perm = rng.permutation(len(s))
    assert np.abs(nw_predict(Tensor(q), s[perm], labels[perm]).data - probs).max() < 1e-12

    # duplicating the whole support changes nothing
    doubled = nw_predict(Tensor(q), np.concatenate([s, s]), np.concatenate([labels, labels]))
    assert np.abs(doubled.data - probs).max() < 1e-12

    # translating every feature by a shared vector changes nothing
    shift = rng.normal(size=q.shape[1])
    assert np.abs(nw_predict(Tensor(q + shift), s + shift, labels).data - probs).max() < 1e-12


def test_cross_entropy_perfect_prediction_is_zero():
    probs = Tensor([[1.0, 0.0], [0.0, 1.0]])
    labels = onehot([0, 1], 2)
    assert cross_entropy(probs, labels).item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_is_log_c():
    for c in (2, 3, 5):
        probs = Tensor(np.full((4, c), 1.0 / c))
        labels = onehot([0] * 4, c)
        assert cross_entropy(probs, labels).item() == pytest.approx(np.log(c), abs=1e-12)


def test_nw_cross_entropy_gradients_match_finite_differences():
    # <= 8-point toy, gradient w.r.t. FeatureNet weights
    rng = Rng(17)
    net = FeatureNet((3, 6, 2), rng)
    gen = np.random.default_rng(17)
    qx = gen.normal(size=(3, 3))
    sx = gen.normal(size=(5, 3))
    sup_labels = onehot([0, 1, 0, 1, 0], 2)
    q_labels = onehot([1, 0, 1], 2)

    def f():
        return cross_entropy(nw_predict(net.extract(qx), net.extract(sx), sup_labels), q_labels)

    assert grad_check(f, net.parameters(), eps=1e-5) < 1e-4


def _composite_nw_predict(q, s, labels):
    return matmul(softmax_rows(similarity(q, s)), Tensor(labels))


def _composite_cross_entropy(probs, labels):
    n, c = labels.shape
    true_probs = matmul(mul(probs, Tensor(labels)), Tensor(np.ones((c, 1))))
    return scale(sum_all(log(shift(true_probs, 1e-15))), -1.0 / n)


def _values_and_grads(q, s, labels, q_labels, predict, ce, upstream):
    """(predictions, CE, d(CE)/d(q, s), d(<predictions, upstream>)/d(q, s))."""
    out = []
    for head in (lambda p: ce(p, q_labels), lambda p: sum_all(mul(p, Tensor(upstream)))):
        qt, st = Tensor(q), Tensor(s)
        tape = Tape()
        tape.watch(qt, st)
        probs = predict(qt, st, labels)
        loss = head(probs)
        grads = backward(tape, loss)
        out.append((probs.data, loss.item(), grads[qt].data, grads[st].data))
    (probs, ce_value, ce_gq, ce_gs), (_, _, up_gq, up_gs) = out
    return probs, ce_value, ce_gq, ce_gs, up_gq, up_gs


@pytest.mark.parametrize("case", ["random", "query_on_support_row", "one_row_support", "one_query"])
def test_fused_nw_predict_and_cross_entropy_match_the_composite_chain(case):
    gen = np.random.default_rng(40)
    for _ in range(10):
        nq = 1 if case == "one_query" else int(gen.integers(1, 9))
        m = 1 if case == "one_row_support" else int(gen.integers(1, 20))
        dim, c = int(gen.integers(1, 6)), int(gen.integers(2, 5))
        q, s = gen.normal(size=(nq, dim)), gen.normal(size=(m, dim))
        if case == "query_on_support_row":
            # quarter-integer features keep the expansion exact, so D = 0
            q, s = np.round(4 * q) / 4, np.round(4 * s) / 4
            q[0] = s[-1]
            assert sqdist(q[:1], s[-1:])[0, 0] == 0.0
        labels = onehot(gen.integers(0, c, size=m), c)
        q_labels = onehot(gen.integers(0, c, size=nq), c)
        upstream = gen.normal(size=(nq, c))
        fused = _values_and_grads(q, s, labels, q_labels, nw_predict, cross_entropy, upstream)
        composite = _values_and_grads(q, s, labels, q_labels, _composite_nw_predict,
                                      _composite_cross_entropy, upstream)
        for got, want in zip(fused, composite):
            assert np.abs(np.asarray(got) - np.asarray(want)).max() <= 1e-12


def test_fused_cross_entropy_keeps_the_domain_check():
    with pytest.raises(DomainError):
        cross_entropy(Tensor([[-1.0, 2.0]]), onehot([0], 2))


def test_take_rows_gradient_scatters_into_zeros():
    gen = np.random.default_rng(41)
    x = Tensor(gen.normal(size=(6, 3)))
    upstream = gen.normal(size=(3, 3))
    tape = Tape()
    tape.watch(x)
    loss = sum_all(mul(take_rows(x, 2, 5), Tensor(upstream)))
    grad = backward(tape, loss)[x].data
    assert np.array_equal(grad[2:5], upstream)
    assert not grad[:2].any() and not grad[5:].any()
    with pytest.raises(ShapeError):
        take_rows(x, 4, 7)
