import numpy as np
import pytest

from nwlearn import Tape, Tensor, backward, grad_check
from nwlearn.errors import ConfigError, ContractError, DomainError, ShapeError
from nwlearn.optim import Adam, Sgd
from nwlearn.featnet import FeatureNet, linear_head
from nwlearn.rng import Rng
from nwlearn.tensor import (
    Gradients,
    _row_max,
    _row_sum,
    add,
    mul,
    scale,
    smallest_k,
    softmax,
    softmax_rows,
    sub,
    sum_all,
)
from taped_ops import add_bias, composite_extract, log, matmul, mean_all, pairwise_sqdist, relu, sqrt


def test_matmul_identity():
    out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[3.0], [4.0]]


def test_relu_definition():
    assert relu(Tensor([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]


def test_pairwise_sqdist_hand_value():
    # 3^2 + 4^2
    out = pairwise_sqdist(Tensor([[0.0, 0.0]]), Tensor([[3.0, 4.0]]))
    assert out.data.tolist() == [[25.0]]


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)|\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_sqrt_of_negative_is_domain_error():
    with pytest.raises(DomainError):
        sqrt(Tensor([-1.0]))
    # round-off sized negatives clamp to zero instead
    assert sqrt(Tensor([-1e-12])).data.tolist() == [0.0]


def test_log_of_nonpositive_is_domain_error():
    with pytest.raises(DomainError):
        log(Tensor([0.0]))


def test_nonfinite_tensor_rejected():
    with pytest.raises(DomainError):
        Tensor([np.inf])


def test_backward_sum_is_ones():
    tape = Tape()
    x = Tensor([1.0, 2.0, 3.0])
    tape.watch(x)
    grads = backward(tape, sum_all(x))
    assert grads[x].data.tolist() == [1.0, 1.0, 1.0]


def test_backward_mean_square_matches_finite_differences():
    # loss = mean(x^2) at x=[1,2]; oracle: central differences
    def loss_at(vals):
        x = Tensor(vals)
        return mean_all(mul(x, x)).item()

    eps = 1e-6
    oracle = [
        (loss_at([1.0 + eps, 2.0]) - loss_at([1.0 - eps, 2.0])) / (2 * eps),
        (loss_at([1.0, 2.0 + eps]) - loss_at([1.0, 2.0 - eps])) / (2 * eps),
    ]
    assert oracle == pytest.approx([1.0, 2.0], abs=1e-8)

    tape = Tape()
    x = Tensor([1.0, 2.0])
    tape.watch(x)
    grads = backward(tape, mean_all(mul(x, x)))
    assert grads[x].data == pytest.approx(oracle, abs=1e-8)


def test_backward_empty_parameter_set_gives_empty_map():
    tape = Tape()
    x = Tensor([1.0, 2.0])
    assert backward(tape, sum_all(x)) == {}


def test_backward_empty_tape_is_noop():
    tape = Tape()
    p = Tensor([3.0])
    tape.watch(p)
    grads = backward(tape, Tensor(0.0))
    assert grads[p].data.tolist() == [0.0]


def test_backward_rejects_nonscalar_loss():
    tape = Tape()
    x = Tensor([1.0, 2.0])
    tape.watch(x)
    with pytest.raises(ContractError):
        backward(tape, relu(x))


def test_tape_consumed_after_backward():
    tape = Tape()
    x = Tensor([1.0])
    tape.watch(x)
    backward(tape, sum_all(x))
    with pytest.raises(ContractError):
        backward(tape, Tensor(0.0))


def test_grad_check_constant_is_zero():
    p = Tensor([1.0, 2.0])
    assert grad_check(lambda: Tensor(5.0), [p]) == 0.0


def test_grad_check_dot_product():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(1, 6)))
    x = Tensor(rng.normal(size=(6, 1)))
    err = grad_check(lambda: sum_all(matmul(w, x)), [w], eps=1e-5)
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_all_primitives_gradients_match_finite_differences(seed):
    # random inputs in [-2, 2], 1e-4 relative tolerance
    rng = np.random.default_rng(seed)

    def u(shape):
        return Tensor(rng.uniform(-2.0, 2.0, size=shape))

    a, b = u((3, 4)), u((4, 2))
    m1, m2 = u((3, 4)), u((3, 4))
    pos = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)))
    va, vb = u((3, 5)), u((4, 5))
    bias = u(4)

    cases = [
        ([a, b], lambda: sum_all(matmul(a, b))),
        ([m1, m2], lambda: sum_all(mul(m1, m2))),
        ([m1, m2], lambda: sum_all(add(m1, m2))),
        ([m1, bias], lambda: sum_all(add_bias(m1, bias))),
        ([m1], lambda: sum_all(relu(m1))),
        ([m1], lambda: mean_all(scale(m1, -1.7))),
        ([pos], lambda: sum_all(sqrt(pos))),
        ([pos], lambda: sum_all(log(pos))),
        ([m1], lambda: sum_all(mul(softmax_rows(m1), m2))),
        ([va, vb], lambda: sum_all(pairwise_sqdist(va, vb))),
        ([va, vb], lambda: sum_all(sqrt(pairwise_sqdist(va, vb)))),
        ([m1, m2], lambda: sum_all(sub(m1, m2))),
    ]
    for params, f in cases:
        assert grad_check(f, params, eps=1e-5) < 1e-4


def test_softmax_rows_is_simplex_and_shift_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-50.0, 50.0, size=(4, 6))
        s = softmax_rows(Tensor(x)).data
        assert (s >= 0).all()
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-9
        # adding a constant to a row leaves that row's softmax unchanged
        c = rng.uniform(-10, 10, size=(4, 1))
        assert np.abs(softmax_rows(Tensor(x + c)).data - s).max() < 1e-9


@pytest.mark.parametrize("shape", [(3000, 2), (1200, 20), (640, 20), (639, 20), (17, 16), (2, 3000), (16, 16), (1, 1), (50, 1), (1, 7)])
def test_row_max_and_softmax_are_bit_identical_to_the_plain_reduction(shape):
    gen = np.random.default_rng(13)
    # few distinct values, signed zeros among them, so most rows hold ties
    values = np.array([-0.0, 0.0, -1.5, 2.25, 2.25, -np.inf, 1e300])
    for x in (gen.choice(values, size=shape), gen.normal(size=shape) * 30.0,
              np.asfortranarray(gen.normal(size=shape)), gen.normal(size=(shape[1], shape[0])).T):
        plain = x.max(axis=1, keepdims=True)
        assert _row_max(x).tobytes() == plain.tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            expect = np.exp(x - plain)
            expect /= expect.sum(axis=1, keepdims=True)
            assert softmax(x).tobytes() == expect.tobytes()


@pytest.mark.parametrize("shape", [(3000, 2), (64, 2), (63, 2), (3000, 3), (2, 2), (1, 2), (50, 1)])
def test_row_sum_is_bit_identical_to_the_plain_reduction(shape):
    gen = np.random.default_rng(14)
    # signed zeros: numpy's reduction turns a row of two -0.0 into 0.0
    values = np.array([-0.0, 0.0, -1.5, 1.5, 2.25, 1e308, -1e-300])
    for v in (gen.choice(values, size=shape), gen.normal(size=shape) * 30.0):
        # C-ordered, Fortran-ordered, transposed and column-strided layouts of the same values
        for x in (v, np.asfortranarray(v), np.ascontiguousarray(v.T).T, np.repeat(v, 2, axis=1)[:, ::2]):
            with np.errstate(over="ignore"):
                assert _row_sum(x).tobytes() == x.sum(axis=1).tobytes()


def _net_head_loss(net, head, x, upstream, extract):
    return sum_all(mul(softmax_rows(extract(head, extract(net, x))), Tensor(upstream)))


def test_backward_gradients_are_views_of_one_flat_vector_in_watch_order():
    gen = np.random.default_rng(15)
    net, head = FeatureNet((5, 7, 3), Rng(16)), linear_head(3, 2)
    head.weights[0].data = gen.normal(size=(3, 2))
    x, upstream = Tensor(gen.normal(size=(9, 5))), gen.normal(size=(9, 2))
    params = net.parameters() + head.parameters()

    got, want = [], []
    for extract, out in ((FeatureNet.extract, got), (composite_extract, want)):
        tape = Tape()
        tape.watch(*params)
        out.append(backward(tape, _net_head_loss(net, head, x, upstream, extract)))
    grads, reference = got[0], want[0]
    assert isinstance(grads, Gradients) and grads.params == tuple(params)
    assert list(grads) == params and grads.flat.size == sum(p.size for p in params)
    start, origin = 0, grads.flat.__array_interface__["data"][0]
    for p in params:
        g = grads[p].data
        assert g.shape == p.shape and g.__array_interface__["data"][0] == origin + 8 * start
        assert np.shares_memory(g, grads.flat)
        assert g.tobytes() == reference[p].data.tobytes()
        start += p.size
    assert grads.flat.tobytes() == np.concatenate([reference[p].data.ravel() for p in params]).tobytes()


def test_backward_raises_on_a_finite_loss_whose_gradient_overflows():
    x = Tensor([0.0, 0.0])
    big = Tensor([1e308, 1e308])
    tape = Tape()
    tape.watch(x)
    # the value is 0, but the two uses of x add two 1e308 gradients
    loss = add(sum_all(mul(x, big)), sum_all(mul(x, big)))
    assert loss.item() == 0.0
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="non-finite gradient"):
        backward(tape, loss)


def _grads(p, g):
    """Gradients over the one parameter ``p``."""
    return Gradients(np.asarray(g, dtype=np.float64).ravel(), (p,), [p.shape])


def test_sgd_definition():
    p = Tensor([0.0])
    opt = Sgd([p], lr=0.1)
    opt.step(_grads(p, [1.0]))
    assert p.data.tolist() == pytest.approx([-0.1])


def test_zero_gradient_leaves_params_unchanged():
    for make in (Sgd, Adam):
        p = Tensor([2.5])
        make([p], lr=0.1).step(_grads(p, [0.0]))
        assert p.data.tolist() == pytest.approx([2.5])


def test_sgd_decoupled_weight_decay():
    # p - lr*wd*p = 2 - 0.1*0.5*2
    p = Tensor([2.0])
    opt = Sgd([p], lr=0.1, weight_decay=0.5)
    opt.step(_grads(p, [0.0]))
    assert p.data.tolist() == pytest.approx([1.9])


def test_optimizer_rejects_nonpositive_lr():
    with pytest.raises(ConfigError):
        Sgd([Tensor([1.0])], lr=0.0)
    with pytest.raises(ConfigError):
        Adam([Tensor([1.0])], lr=-1.0)


def test_optimizer_rejects_negative_weight_decay():
    for make in (Sgd, Adam):
        p = Tensor([1.0])
        with pytest.raises(ConfigError, match="weight_decay"):
            make([p], lr=0.1, weight_decay=-0.5)


def test_adam_trajectory_is_deterministic():
    def run():
        rng = np.random.default_rng(11)
        p = Tensor(rng.normal(size=(4, 3)))
        opt = Adam([p], lr=0.05)
        trail = []
        for _ in range(20):
            tape = Tape()
            tape.watch(p)
            loss = sum_all(mul(p, p))
            grads = backward(tape, loss)
            opt.step(grads)
            trail.append(p.data.copy())
        return np.stack(trail)

    first, second = run(), run()
    assert (first == second).all()


def test_smallest_k_is_the_head_of_a_stable_argsort():
    # few distinct values, so ties straddle position k in most rows
    gen = np.random.default_rng(12)
    for n in (1, 2, 7, 40):
        d = gen.integers(0, 4, size=(30, n)).astype(np.float64)
        for k in range(1, n + 1):
            assert np.array_equal(smallest_k(d, k), np.argsort(d, axis=1, kind="stable")[:, :k])
