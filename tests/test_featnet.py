import tracemalloc

import numpy as np
import pytest

from nwlearn import Rng, Tape, backward, grad_check
from nwlearn.errors import ConfigError, DomainError, ShapeError
from nwlearn.featnet import DEFAULT_FEATURE_DIM, DEFAULT_HIDDEN_DIMS, FeatureNet, linear_head
from nwlearn.tensor import Tensor, mul, softmax_rows, sum_all
from taped_ops import add_bias, composite_extract, matmul


def test_init_shapes():
    net = FeatureNet((4, 8, 2), Rng(0))
    assert [w.shape for w in net.weights] == [(4, 8), (8, 2)]
    assert [b.shape for b in net.biases] == [(8,), (2,)]


def test_same_seed_gives_identical_weights():
    a = FeatureNet((4, 8, 2), Rng(42))
    b = FeatureNet((4, 8, 2), Rng(42))
    for wa, wb in zip(a.weights, b.weights):
        assert (wa.data == wb.data).all()


def test_bad_dims_rejected():
    with pytest.raises(ConfigError):
        FeatureNet((4,), Rng(0))
    with pytest.raises(ConfigError):
        FeatureNet((4, 0, 2), Rng(0))
    with pytest.raises(ConfigError):
        FeatureNet((), Rng(0))


def test_zero_weight_net_gives_zero_features():
    net = FeatureNet((3, 4, 2), Rng(0))
    for w in net.weights:
        w.data = np.zeros_like(w.data)
    out = net.extract(np.ones((5, 3)))
    assert (out.data == 0).all()


def test_identity_single_layer():
    net = FeatureNet.from_weights((3, 3), [np.eye(3)], [np.zeros(3)])
    x = np.arange(6, dtype=float).reshape(2, 3)
    assert (net.extract(x).data == x).all()


def test_extract_matches_straight_line_reevaluation():
    # independent oracle: plain numpy forward pass
    rng = Rng(5)
    net = FeatureNet((4, 6, 3), rng)
    x = np.random.default_rng(1).normal(size=(7, 4))
    got = net.extract(x).data
    h = x
    h = np.maximum(h @ net.weights[0].data + net.biases[0].data, 0.0)
    h = h @ net.weights[1].data + net.biases[1].data
    assert np.abs(got - h).max() < 1e-12


def test_extract_is_deterministic():
    net = FeatureNet((4, 6, 3), Rng(5))
    x = np.random.default_rng(2).normal(size=(5, 4))
    assert (net.extract(x).data == net.extract(x).data).all()


def test_extract_rejects_wrong_input_dim():
    net = FeatureNet((4, 6, 3), Rng(5))
    with pytest.raises(ShapeError):
        net.extract(np.zeros((2, 5)))


def test_extract_gradients_match_finite_differences():
    net = FeatureNet((3, 5, 2), Rng(9))
    x = np.random.default_rng(3).normal(size=(4, 3))
    err = grad_check(lambda: sum_all(net.extract(x)), net.parameters(), eps=1e-5)
    assert err < 1e-4


def test_extract_pure_when_unwatched():
    net = FeatureNet((3, 5, 2), Rng(9))
    out = net.extract(np.zeros((2, 3)))
    assert out.tape is None


def test_extract_recorded_when_watched():
    net = FeatureNet((3, 5, 2), Rng(9))
    tape = Tape()
    tape.watch(*net.parameters())
    out = net.extract(np.ones((2, 3)))
    assert out.tape is tape
    grads = backward(tape, sum_all(out))
    assert set(grads) == set(net.parameters())


def _value_and_grads(forward, net, x, upstream, watch_input):
    tape = Tape()
    inputs = net.parameters() + ([x] if watch_input else [])
    tape.watch(*inputs)
    out = forward(net, x)
    grads = backward(tape, sum_all(mul(out, Tensor(upstream))))
    return out.data, [grads[t].data for t in inputs]


@pytest.mark.parametrize("seed", range(6))
def test_extract_node_matches_the_composite_chain(seed):
    gen = np.random.default_rng(seed)
    dims = [int(d) for d in gen.integers(1, 9, size=int(gen.integers(2, 6)))]
    net = FeatureNet(dims, Rng(seed))
    for b in net.biases:
        b.data = gen.normal(size=b.shape)
    for n_rows in (1, int(gen.integers(2, 30))):
        for watch_input in (False, True):
            x = Tensor(gen.normal(size=(n_rows, dims[0])))
            upstream = gen.normal(size=(n_rows, dims[-1]))
            got, got_grads = _value_and_grads(FeatureNet.extract, net, x, upstream, watch_input)
            want, want_grads = _value_and_grads(composite_extract, net, x, upstream, watch_input)
            assert np.array_equal(got, want)
            assert len(got_grads) == len(want_grads)
            for g, w in zip(got_grads, want_grads):
                assert np.array_equal(g, w)


def test_extract_is_one_tape_node():
    net = FeatureNet((3, 5, 4, 2), Rng(9))
    tape = Tape()
    tape.watch(*net.parameters())
    net.extract(np.ones((2, 3)))
    assert len(tape._nodes) == 1


def test_extract_input_alone_on_the_tape_gets_its_gradient():
    net = FeatureNet((3, 5, 2), Rng(10))
    x = Tensor(np.random.default_rng(4).normal(size=(4, 3)))
    tape = Tape()
    tape.watch(x)
    grads = backward(tape, sum_all(net.extract(x)))
    ref_tape = Tape()
    ref_tape.watch(x)
    want = backward(ref_tape, sum_all(composite_extract(net, x)))
    assert np.array_equal(grads[x].data, want[x].data)


@pytest.mark.parametrize("taped", [False, True])
def test_non_finite_intermediate_raises_domain_error(taped):
    net = FeatureNet((2, 3, 2), Rng(11))
    # a finite input overflows the hidden pre-activation to -inf, which the
    # relu would turn into a finite 0
    net.weights[0].data = np.full((2, 3), -1e300)
    x = np.full((1, 2), 1e300)
    tape = Tape()
    if taped:
        tape.watch(*net.parameters())
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError):
            composite_extract(net, x)
        with pytest.raises(DomainError):
            net.extract(x)
    net.weights[0].data = np.ones((2, 3))
    net.biases[1].data = np.array([np.inf, 0.0])  # a non-finite output
    with pytest.raises(DomainError):
        net.extract(np.ones((1, 2)))


def test_from_weights_rejects_a_bad_bias_shape():
    with pytest.raises(ConfigError):
        FeatureNet.from_weights((3, 2), [np.zeros((3, 2))], [np.zeros(3)])
    with pytest.raises(ConfigError):
        FeatureNet.from_weights((3, 2), [np.zeros((3, 2))], [np.zeros((1, 2))])


@pytest.mark.parametrize("n_weights, n_biases", [(1, 2), (2, 1), (1, 1), (3, 3)])
def test_from_weights_rejects_a_wrong_number_of_layers(n_weights, n_biases):
    dims = (4, 8, 3)
    weights = [np.zeros((din, dout)) for din, dout in zip(dims[:-1], dims[1:])] + [np.zeros((3, 3))]
    biases = [np.zeros(dout) for dout in dims[1:]] + [np.zeros(3)]
    with pytest.raises(ConfigError, match="2 biases|weights"):
        FeatureNet.from_weights(dims, weights[:n_weights], biases[:n_biases])


@pytest.mark.parametrize("n_classes", [0, 1])
def test_linear_head_needs_two_classes(n_classes):
    with pytest.raises(ConfigError):
        linear_head(16, n_classes)


@pytest.mark.parametrize("dims", [(16, 0), (0, 4), (3, 0, 2), (5,)])
def test_from_weights_rejects_the_layer_dims_that_construction_rejects(dims):
    weights = [np.zeros((din, dout)) for din, dout in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(dout) for dout in dims[1:]]
    with pytest.raises(ConfigError, match="layer_dims"):
        FeatureNet(dims, Rng(0))
    with pytest.raises(ConfigError, match="layer_dims"):
        FeatureNet.from_weights(dims, weights, biases)


def default_net_and_rows(n, seed=12):
    """A net of the default dims with non-zero biases, and n input rows."""
    gen = np.random.default_rng(seed)
    net = FeatureNet((16, *DEFAULT_HIDDEN_DIMS, DEFAULT_FEATURE_DIM), Rng(seed))
    for b in net.biases:
        b.data = gen.normal(size=b.shape)
    return net, gen.normal(size=(n, 16))


# one row; whole blocks of 128 rows and one short by a row; a 1-row tail
# that joins the block before it; many blocks
@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 3000])
def test_untaped_extract_in_row_blocks_matches_the_one_shot_layers(n):
    net, x = default_net_and_rows(n)
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.data + b.data
        if i != len(net.weights) - 1:
            h = np.maximum(h, 0.0)
    assert np.array_equal(net.extract(x).data, h)


def test_untaped_extract_matches_the_taped_values():
    net, x = default_net_and_rows(3000)
    tape = Tape()
    tape.watch(*net.parameters())
    assert np.array_equal(net.extract(x).data, net.extract(Tensor(x)).data)


def test_non_finite_pre_activation_in_the_last_block_raises_domain_error():
    net, x = default_net_and_rows(3000)
    x[2999] = 1e300
    net.weights[0].data[:, 0] = 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(net.extract(x[:2999]).data).all()
        with pytest.raises(DomainError, match="layer 0"):
            net.extract(x)


def test_untaped_extract_holds_no_whole_input_hidden_layer():
    net, x = default_net_and_rows(3000)
    tracemalloc.start()
    try:
        net.extract(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two (3000, 64) float64 hidden layers would be 3 MB; the output is 384 KB
    assert peak < 1_000_000


def _head_probs_and_grads(probs_of, head, feats, watch_input):
    """Probabilities of ``probs_of(feats)`` and, on a tape, the gradients
    of a fixed random weighting of them for the input (when watched), the
    head's weight and its bias."""
    tape, inputs = Tape(), head.parameters() + ([feats] if watch_input else [])
    tape.watch(*inputs)
    probs = probs_of(feats)
    upstream = Tensor(np.random.default_rng(probs.shape[0]).normal(size=probs.shape))
    grads = backward(tape, sum_all(mul(probs, upstream)))
    return [probs.data] + [grads[t].data for t in inputs]


# the untaped forward runs in 4096-row blocks at 2 classes: one row, one
# block, a 1-row tail that joins the block before it, and a 2-row tail
@pytest.mark.parametrize("n", [1, 2, 600, 3000, 4097, 4098])
def test_linear_head_matches_the_matmul_add_softmax_chain_bit_for_bit(n):
    gen = np.random.default_rng(n)
    head = linear_head(DEFAULT_FEATURE_DIM, 2)
    head.weights[0].data = gen.normal(size=(DEFAULT_FEATURE_DIM, 2))
    head.biases[0].data = gen.normal(size=2)
    feats = gen.normal(size=(n, DEFAULT_FEATURE_DIM))
    w, b = head.parameters()

    def fused(f):
        return softmax_rows(head.extract(f))

    def chain(f):
        return softmax_rows(add_bias(matmul(f, w), b))

    assert fused(feats).data.tobytes() == chain(Tensor(feats)).data.tobytes()
    for watch_input in (False, True):
        got = _head_probs_and_grads(fused, head, Tensor(feats), watch_input)
        want = _head_probs_and_grads(chain, head, Tensor(feats), watch_input)
        assert len(got) == len(want) == 3 + watch_input
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
