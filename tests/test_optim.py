import numpy as np
import pytest

from nwlearn import Rng
from nwlearn.errors import ContractError
from nwlearn.featnet import FeatureNet, linear_head
from nwlearn.optim import Adam, Sgd
from nwlearn.tensor import Gradients, Tape, Tensor, backward, mul, sum_all


def _net_and_head():
    net = FeatureNet((5, 7, 3), Rng(60))
    head = linear_head(3, 4)
    head.biases[0].data = np.linspace(-1.0, 1.0, 4)
    return net, head


def _random_grads(gen, params):
    """Gradients over ``params`` in that order, each of a random scale."""
    parts = [gen.normal(size=p.shape) * gen.uniform(1e-3, 10.0) for p in params]
    return Gradients(np.concatenate([g.ravel() for g in parts]), tuple(params), [p.shape for p in params])


def _backward(watched, net, head, x, upstream):
    """backward's gradients of sum(head(net(x)) * upstream), ``watched`` watched in that order."""
    tape = Tape()
    tape.watch(*watched)
    return backward(tape, sum_all(mul(head.extract(net.extract(x)), upstream)))


def _numpy_adam(values, grads, m, v, t, lr):
    """One plain-numpy Adam step over lists of arrays, moments updated in place."""
    out = []
    for a, g, mi, vi in zip(values, grads, m, v):
        mi *= 0.9
        mi += (1.0 - 0.9) * g
        vi *= 0.999
        vi += (1.0 - 0.999) * (g * g)
        denom = np.sqrt(vi / (1.0 - 0.999 ** t)) + 1e-8
        out.append(a - lr * (mi / (1.0 - 0.9 ** t)) / denom)
    return out


def _inputs(seed):
    gen = np.random.default_rng(seed)
    return Tensor(gen.normal(size=(6, 5))), Tensor(gen.normal(size=(6, 4)))


def test_flat_adam_matches_per_array_reference():
    net, head = _net_and_head()
    params = net.parameters() + head.parameters()
    values = [p.data.copy() for p in params]
    m, v = [np.zeros_like(a) for a in values], [np.zeros_like(a) for a in values]
    opt = Adam(params, lr=1e-2)
    gen = np.random.default_rng(61)
    for step in range(1, 101):
        grads = _random_grads(gen, params)
        opt.step(grads)
        values = _numpy_adam(values, [grads[p].data for p in params], m, v, step, 1e-2)
        for p, want in zip(params, values):
            assert p.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("zero_share", [0.0, 0.05])
def test_flat_adam_updates_one_vector_in_place(zero_share):
    """Each step writes the one flat vector in place, also where a share of
    the gradient entries is zero and only the moments move those values."""
    net, head = _net_and_head()
    params = net.parameters() + head.parameters()
    values = [p.data.copy() for p in params]
    m, v = [np.zeros_like(a) for a in values], [np.zeros_like(a) for a in values]
    opt = Adam(params, lr=1e-2)
    # made over the parameters, the optimizer holds their values in one vector
    views = [p.data for p in params]
    assert opt.flat.size == sum(p.size for p in params)
    assert all(p.data.base is opt.flat for p in params)
    assert all(p.data.tobytes() == want.tobytes() for p, want in zip(params, values))
    gen = np.random.default_rng(64)
    for step in range(1, 7):
        grads = _random_grads(gen, params)
        grads.flat[gen.random(grads.flat.size) < zero_share] = 0.0
        opt.step(grads)
        assert all(p.data is view for p, view in zip(params, views))
        values = _numpy_adam(values, [grads[p].data for p in params], m, v, step, 1e-2)
        for p, want in zip(params, values):
            assert p.data.tobytes() == want.tobytes()


def test_adam_on_backwards_flat_gradients_matches_numpy_adam_bit_for_bit():
    net, head = _net_and_head()
    unreached = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3))  # the loss never reads it
    params = net.parameters() + [unreached] + head.parameters()
    x, upstream = _inputs(65)
    opt = Adam(params, lr=1e-2)
    values = [p.data.copy() for p in params]
    m, v = [np.zeros_like(a) for a in values], [np.zeros_like(a) for a in values]
    for step in range(1, 6):
        grads = _backward(params, net, head, x, upstream)
        assert grads.params == tuple(params) and not grads[unreached].data.any()
        before = grads.flat.copy()
        opt.step(grads)
        assert grads.flat.tobytes() == before.tobytes()
        values = _numpy_adam(values, [grads[p].data for p in params], m, v, step, 1e-2)
        for p, want in zip(params, values):
            assert p.data.tobytes() == want.tobytes()


def test_optimizer_reads_gradients_edited_in_place():
    net, head = _net_and_head()
    params = net.parameters() + head.parameters()
    x, upstream = _inputs(67)
    values = [p.data.copy() for p in params]
    m, v = [np.zeros_like(a) for a in values], [np.zeros_like(a) for a in values]
    opt = Adam(params, lr=1e-2)
    grads = _backward(params, net, head, x, upstream)
    grads[params[0]].data *= 0.5  # in place: reaches the flat vector
    grads[params[5]].data[:] = np.clip(grads[params[5]].data, -0.1, 0.1)
    opt.step(grads)
    values = _numpy_adam(values, [grads[p].data for p in params], m, v, 1, 1e-2)
    for p, want in zip(params, values):
        assert p.data.tobytes() == want.tobytes()


def test_flat_adam_rejects_a_changed_parameter_layout():
    # gradients over other parameters than the optimizer was made over
    net, head = _net_and_head()
    params = net.parameters()
    gen = np.random.default_rng(63)
    for make in (Sgd, Adam):
        opt = make(params, lr=1e-2)
        before = opt.flat.copy()
        for other in (head.parameters(), params[:-1], params + head.parameters()):
            with pytest.raises(ContractError, match="over other parameters"):
                opt.step(_random_grads(gen, other))
        assert opt.flat.tobytes() == before.tobytes()


def test_optimizer_rejects_gradients_in_another_watch_order():
    net, head = _net_and_head()
    params = net.parameters() + head.parameters()
    x, upstream = _inputs(66)
    for make in (Sgd, Adam):
        opt = make(params, lr=1e-2)
        before = opt.flat.copy()
        with pytest.raises(ContractError, match="another watch order"):
            opt.step(_backward(params[::-1], net, head, x, upstream))
        assert opt.flat.tobytes() == before.tobytes()


def test_optimizer_rejects_a_rebound_parameter():
    x, upstream = _inputs(62)
    for make in (Sgd, Adam):
        net, head = _net_and_head()
        params = net.parameters() + head.parameters()
        opt = make(params, lr=1e-2)
        opt.step(_backward(params, net, head, x, upstream))
        # an assignment to p.data leaves the optimizer's vector behind
        net.weights[1].data = net.weights[1].data.copy()
        before = opt.flat.copy()
        with pytest.raises(ContractError, match="rebound"):
            opt.step(_backward(params, net, head, x, upstream))
        assert opt.flat.tobytes() == before.tobytes()


def test_optimizer_rejects_a_rebound_gradient_value():
    # an assignment to grads[p].data would leave the flat gradient behind
    x, upstream = _inputs(68)
    for make in (Sgd, Adam):
        net, head = _net_and_head()
        params = net.parameters() + head.parameters()
        opt = make(params, lr=1e-2)
        grads = _backward(params, net, head, x, upstream)
        grads[params[0]].data = np.zeros(params[0].shape)
        before = opt.flat.copy()
        with pytest.raises(ContractError, match="gradient value's data was rebound"):
            opt.step(grads)
        assert opt.flat.tobytes() == before.tobytes()
