"""SGD and Adam over one flat parameter vector.

An optimizer is made over its parameters and owns their values: it
copies them, in order, into one flat vector ``flat`` and rebinds each
parameter's data to its view of it. ``step(grads)`` reads ``grads.flat``,
the flat gradient that :func:`~nwlearn.tensor.backward` returns, already
checked finite, when the parameters were watched in the optimizer's
order; it updates ``flat`` in place and never writes into the gradient.
Training makes an ``Adam``; ``Sgd`` is the plain step p <- p - lr * g.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Gradients, Tensor

# Adam's moment decay rates and the guard on its denominator (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class _FlatOptimizer:
    def __init__(self, params: list[Tensor], lr: float):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = lr
        self.params = tuple(params)
        self.flat = np.concatenate([p.data.ravel() for p in self.params])
        for p, part in zip(self.params, np.split(self.flat, np.cumsum([p.data.size for p in self.params])[:-1])):
            p.data = part.reshape(p.data.shape)
        self._views = [p.data for p in self.params]

    def _grad(self, grads: Gradients) -> np.ndarray:
        """``grads.flat``; ContractError unless it is the gradient of this
        optimizer's parameters, watched in its order, no gradient value's
        data was rebound, and every parameter is still its view of ``flat``."""
        if grads.params != self.params:
            what = "in another watch order" if set(grads.params) == set(self.params) else "over other parameters"
            raise ContractError(f"the gradients were taken {what} than the optimizer was made over")
        if grads.rebound():
            raise ContractError("a gradient value's data was rebound; edit it in place")
        if not all(p.data is view for p, view in zip(self.params, self._views)):
            raise ContractError("a parameter's data was rebound after the optimizer was made")
        return grads.flat


class Sgd(_FlatOptimizer):
    def step(self, grads: Gradients):
        g, flat = self._grad(grads), self.flat
        flat -= self.lr * g


class Adam(_FlatOptimizer):
    """Adam over the flat vector, its moments two more flat vectors
    updated in place."""

    def __init__(self, params: list[Tensor], lr: float):
        super().__init__(params, lr)
        n = self.flat.size
        self._m, self._v, self._buf, self._buf2 = np.zeros(n), np.zeros(n), np.empty(n), np.empty(n)
        self._t = 0

    def step(self, grads: Gradients):
        g = self._grad(grads)
        self._t += 1
        b1, b2 = _BETA1, _BETA2
        m, v, u, w, flat = self._m, self._v, self._buf, self._buf2, self.flat
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
        flat -= w
