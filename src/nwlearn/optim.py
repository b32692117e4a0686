"""SGD and Adam with decoupled weight decay.

Weight decay is applied as p <- p - lr * wd * p on top of the gradient
update, for both optimizers. The optimizer is the single writer of
parameter data; Adam writes it in place. Gradients come from
:func:`~nwlearn.tensor.backward` as one flat vector in watch order,
already checked finite; Adam reads that vector as it is when the watch
order is its parameter order, and never writes into it.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Gradients, Tensor

# Adam's moment decay rates and the guard on its denominator (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Sgd:
    def __init__(self, lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, params: list[Tensor], grads: Mapping[Tensor, Tensor]):
        for p in params:
            g = grads[p].data
            p.data = p.data - self.lr * g - self.lr * self.weight_decay * p.data


class Adam:
    """Adam over one flat vector of parameter values.

    The first step fixes the parameter layout (the shape of each parameter
    in order), gathers the values into one flat vector and rebinds each
    parameter's data to its view of it; later steps update the values and
    the flat moments in place. A step whose parameters are not all those
    views (an assignment to ``p.data`` rebinds one) gathers again; a step
    with another layout raises ContractError. The gradients are read from
    ``grads.flat`` when ``grads`` comes from ``backward`` with the
    parameters watched in this order and no gradient's ``data`` rebound,
    else gathered into a new vector.
    """

    def __init__(self, lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay
        self._m = self._v = self._buf = self._buf2 = self._flat = None
        self._views: list[np.ndarray] = []
        self._t = 0

    def _gather(self, params: list[Tensor]):
        layout, sized = [p.data.shape for p in params], [w.shape for w in self._views]
        if self._m is None:
            n = sum(p.data.size for p in params)
            self._m, self._v, self._buf, self._buf2 = np.zeros(n), np.zeros(n), np.empty(n), np.empty(n)
        elif layout != sized:
            raise ContractError(f"Adam was sized for parameters {sized}, got {layout}")
        self._flat = np.concatenate([p.data.ravel() for p in params])
        self._views, start = [], 0
        for p in params:
            stop = start + p.data.size
            p.data = self._flat[start:stop].reshape(p.data.shape)
            self._views.append(p.data)
            start = stop

    def step(self, params: list[Tensor], grads: Mapping[Tensor, Tensor]):
        if len(params) != len(self._views) or not all(map(operator.is_, [p.data for p in params], self._views)):
            self._gather(params)
        self._t += 1
        b1, b2 = _BETA1, _BETA2
        m, v, u, w, flat = self._m, self._v, self._buf, self._buf2, self._flat
        if isinstance(grads, Gradients) and grads.params == tuple(params) and grads.reads_flat():
            g = grads.flat
        else:
            g = np.concatenate([grads[p].data.ravel() for p in params])
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, in place
        m *= b1
        v *= b2
        np.multiply(g, 1.0 - b1, out=u)
        m += u
        np.multiply(g, g, out=w)
        w *= 1.0 - b2
        v += w
        # w becomes the step lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1.0 - b2 ** self._t, out=w)
        np.sqrt(w, out=w)
        w += _EPS
        np.divide(m, 1.0 - b1 ** self._t, out=u)
        u *= self.lr
        np.divide(u, w, out=w)
        # values - step - lr * wd * values, the decay taken on the values before the step
        if self.weight_decay:
            np.multiply(flat, self.lr * self.weight_decay, out=u)
            flat -= w
            flat -= u
        else:
            flat -= w


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}
