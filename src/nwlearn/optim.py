"""SGD and Adam with decoupled weight decay.

Weight decay is applied as p <- p - lr * wd * p on top of the gradient
update, for both optimizers. The optimizer is the single writer of
parameter data.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor


class Sgd:
    def __init__(self, lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, params: list[Tensor], grads: dict[Tensor, Tensor]):
        for p in params:
            g = grads[p].data
            p.data = p.data - self.lr * g - self.lr * self.weight_decay * p.data


class Adam:
    """Adam over one flat moment vector per moment.

    The first step fixes the parameter layout (the shape of each parameter
    in order) and sizes the flat state to it; a later step with another
    layout raises ContractError. Each step gathers the gradients into one
    flat vector, updates the moments with in-place ufuncs, and rebinds each
    parameter's data to its slice of a fresh flat array, so parameters
    whose data was rebound in between (``load_state_arrays``) carry on.
    """

    def __init__(self, lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._layout: list[tuple[int, ...]] | None = None
        self._m = self._v = self._buf = None
        self._t = 0

    def step(self, params: list[Tensor], grads: dict[Tensor, Tensor]):
        layout = [p.data.shape for p in params]
        if self._layout is None:
            self._layout = layout
            n = sum(p.data.size for p in params)
            self._m, self._v, self._buf = np.zeros(n), np.zeros(n), np.empty(n)
        elif layout != self._layout:
            raise ContractError(f"Adam was sized for parameters {self._layout}, got {layout}")
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        m, v, u = self._m, self._v, self._buf
        g = np.concatenate([grads[p].data.ravel() for p in params])
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, in place
        m *= b1
        v *= b2
        np.multiply(g, 1.0 - b1, out=u)
        m += u
        np.multiply(g, g, out=g)
        g *= 1.0 - b2
        v += g
        # g becomes the step lr * m_hat / (sqrt(v_hat) + eps), then the new values
        np.divide(v, 1.0 - b2 ** self._t, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        np.divide(m, 1.0 - b1 ** self._t, out=u)
        u *= self.lr
        np.divide(u, g, out=g)
        flat = np.concatenate([p.data.ravel() for p in params])
        np.subtract(flat, g, out=g)
        g -= self.lr * self.weight_decay * flat
        start = 0
        for p in params:
            stop = start + p.data.size
            p.data = g[start:stop].reshape(p.data.shape)
            start = stop


def make_optimizer(kind: str, lr: float, weight_decay: float = 0.0):
    if kind == "sgd":
        return Sgd(lr, weight_decay)
    if kind == "adam":
        return Adam(lr, weight_decay)
    raise ConfigError(f"unknown optimizer {kind!r}")
