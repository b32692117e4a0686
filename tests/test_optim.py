import numpy as np
import pytest

from nwlearn import Rng
from nwlearn.errors import ContractError
from nwlearn.featnet import FeatureNet, linear_head
from nwlearn.optim import Adam
from nwlearn.tensor import Tape, Tensor, backward, mul, sum_all


class ReferenceAdam:
    """Adam with one moment array per parameter, keyed by position."""

    def __init__(self, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m, self.v, self.t = None, None, 0

    def step(self, arrays, grads):
        if self.m is None:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        out = []
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m[:] = b1 * m + (1.0 - b1) * g
            v[:] = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            out.append(a - self.lr * m_hat / (np.sqrt(v_hat) + self.eps) - self.lr * self.weight_decay * a)
        return out


def _net_and_head():
    net = FeatureNet((5, 7, 3), Rng(60))
    head = linear_head(3, 4)
    head.biases[0].data = np.linspace(-1.0, 1.0, 4)
    return net, head


def _random_grads(gen, params):
    return {p: Tensor(gen.normal(size=p.shape) * gen.uniform(1e-3, 10.0)) for p in params}


def test_flat_adam_matches_per_array_reference():
    net, head = _net_and_head()
    params = net.parameters() + head.parameters()
    reference = [p.data.copy() for p in params]
    opt, ref_opt = Adam(lr=1e-2, weight_decay=0.05), ReferenceAdam(lr=1e-2, weight_decay=0.05)
    gen = np.random.default_rng(61)
    for _ in range(100):
        grads = _random_grads(gen, params)
        opt.step(params, grads)
        reference = ref_opt.step(reference, [grads[p].data for p in params])
        for p, want in zip(params, reference):
            assert p.shape == want.shape
            assert np.abs(p.data - want).max() <= 1e-15


def test_flat_adam_continues_after_parameters_are_rebound():
    net, head = _net_and_head()
    params = net.parameters() + head.parameters()
    opt, ref_opt = Adam(lr=1e-2, weight_decay=0.05), ReferenceAdam(lr=1e-2, weight_decay=0.05)
    gen = np.random.default_rng(62)
    reference = [p.data.copy() for p in params]
    for _ in range(5):
        grads = _random_grads(gen, params)
        opt.step(params, grads)
        reference = ref_opt.step(reference, [grads[p].data for p in params])
    # rebind every parameter to new arrays, as checkpoint selection does
    for w, b in zip(net.weights, net.biases):
        w.data, b.data = w.data + 0.5, b.data - 0.25
    for p in head.parameters():
        p.data = p.data.copy()
    reference = [p.data.copy() for p in params]
    for _ in range(5):
        grads = _random_grads(gen, params)
        opt.step(params, grads)
        reference = ref_opt.step(reference, [grads[p].data for p in params])
    for p, want in zip(params, reference):
        assert np.abs(p.data - want).max() <= 1e-15


def test_flat_adam_rejects_a_changed_parameter_layout():
    net, head = _net_and_head()
    opt = Adam(lr=1e-2)
    gen = np.random.default_rng(63)
    params = net.parameters()
    opt.step(params, _random_grads(gen, params))
    for changed in (head.parameters(), params[:-1], params[::-1]):
        with pytest.raises(ContractError):
            opt.step(changed, _random_grads(gen, changed))


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_flat_adam_updates_one_vector_in_place(weight_decay):
    net, head = _net_and_head()
    params = net.parameters() + head.parameters()
    opt, ref_opt = Adam(lr=1e-2, weight_decay=weight_decay), ReferenceAdam(lr=1e-2, weight_decay=weight_decay)
    gen = np.random.default_rng(64)
    reference = [p.data.copy() for p in params]
    views = None
    for step in range(6):
        if step == 3:
            # one rebound parameter makes the next step gather again
            for p in net.parameters():
                p.data = p.data.copy()
            assert all(p.data is not v for p, v in zip(net.parameters(), views))
        grads = _random_grads(gen, params)
        opt.step(params, grads)
        reference = ref_opt.step(reference, [grads[p].data for p in params])
        base = params[0].data.base
        assert base is not None and base.size == sum(p.size for p in params)
        assert all(p.data.base is base for p in params)
        if step not in (0, 3):
            assert all(p.data is v for p, v in zip(params, views))
        views = [p.data for p in params]
        for p, want in zip(params, reference):
            assert np.abs(p.data - want).max() <= 1e-15


def _numpy_adam(values, grads, m, v, t, lr, weight_decay):
    """One plain-numpy Adam step over lists of arrays, moments updated in place."""
    out = []
    for a, g, mi, vi in zip(values, grads, m, v):
        mi *= 0.9
        mi += (1.0 - 0.9) * g
        vi *= 0.999
        vi += (1.0 - 0.999) * (g * g)
        denom = np.sqrt(vi / (1.0 - 0.999 ** t)) + 1e-8
        out.append(a - lr * (mi / (1.0 - 0.9 ** t)) / denom - lr * weight_decay * a)
    return out


def test_adam_on_backwards_flat_gradients_matches_numpy_adam_bit_for_bit():
    net, head = _net_and_head()
    unreached = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3))  # the loss never reads it
    params = net.parameters() + [unreached] + head.parameters()
    gen = np.random.default_rng(65)
    x, upstream = Tensor(gen.normal(size=(6, 5))), Tensor(gen.normal(size=(6, 4)))
    opt = Adam(lr=1e-2, weight_decay=0.05)
    values = [p.data.copy() for p in params]
    m, v = [np.zeros_like(a) for a in values], [np.zeros_like(a) for a in values]
    for step in range(1, 6):
        if step == 3:
            # a rebound parameter makes Adam gather the values again
            net.weights[1].data = net.weights[1].data.copy()
        tape = Tape()
        tape.watch(*params)
        grads = backward(tape, sum_all(mul(head.extract(net.extract(x)), upstream)))
        assert grads.params == tuple(params) and not grads[unreached].data.any()
        assert grads.reads_flat()
        before = grads.flat.copy()
        opt.step(params, grads)
        assert grads.flat.tobytes() == before.tobytes()
        values = _numpy_adam(values, [grads[p].data for p in params], m, v, step, 1e-2, 0.05)
        for p, want in zip(params, values):
            assert p.data.tobytes() == want.tobytes()


def test_adam_reads_gradients_in_another_order_by_gathering_them():
    net, head = _net_and_head()
    params = net.parameters() + head.parameters()
    x = Tensor(np.random.default_rng(66).normal(size=(4, 5)))
    flat_opt, gathered_opt = Adam(lr=1e-2), Adam(lr=1e-2)
    copies = [Tensor(p.data.copy()) for p in params]
    for _ in range(3):
        tape = Tape()
        tape.watch(*params[::-1])
        grads = backward(tape, sum_all(head.extract(net.extract(x))))
        before = grads.flat.copy()
        flat_opt.step(params, grads)
        assert grads.flat.tobytes() == before.tobytes()
        gathered_opt.step(copies, {c: Tensor(grads[p].data.copy()) for c, p in zip(copies, params)})
        for p, c in zip(params, copies):
            assert p.data.tobytes() == c.data.tobytes()


def test_adam_reads_a_rebound_gradient_instead_of_the_flat_vector():
    net, head = _net_and_head()
    params = net.parameters() + head.parameters()
    x = Tensor(np.random.default_rng(67).normal(size=(4, 5)))
    flat_opt, gathered_opt = Adam(lr=1e-2), Adam(lr=1e-2)
    copies = [Tensor(p.data.copy()) for p in params]
    tape = Tape()
    tape.watch(*params)
    grads = backward(tape, sum_all(head.extract(net.extract(x))))
    grads[params[0]].data *= 0.5  # in place: reaches the flat vector
    grads[params[1]].data = grads[params[1]].data * 4.0  # rebound: the flat vector no longer holds it
    assert not grads.reads_flat()
    flat_opt.step(params, grads)
    gathered_opt.step(copies, {c: Tensor(grads[p].data.copy()) for c, p in zip(copies, params)})
    for p, c in zip(params, copies):
        assert p.data.tobytes() == c.data.tobytes()
