"""Taped elementwise and distance ops that serve only as test references.

The library fuses these chains into single taped nodes (``FeatureNet.extract``
runs matmul/bias add/relu, and matmul/bias add alone for a one-layer head;
``nw_predict`` runs distance/sqrt/softmax/matmul and ``cross_entropy`` runs
select/offset/log/mean). The tests rebuild the chains from the ops below and
compare values and gradients with the fused nodes.
"""

from __future__ import annotations

import numpy as np

from nwlearn.errors import DomainError, ShapeError
from nwlearn.tensor import Tensor, _result, _wrap, scale, sqdist

# negative round-off this small is absorbed by sqrt instead of raising
_SQRT_SLACK = 1e-9


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _result(a.data @ b.data, (a, b), vjp)


def add_bias(x, b) -> Tensor:
    """Matrix plus row vector: ``b`` is added to every row of ``x``."""
    x, b = _wrap(x), _wrap(b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: shapes {x.shape} and {b.shape} do not conform")

    def vjp(g):
        return g, g.sum(axis=0)

    return _result(x.data + b.data, (x, b), vjp)


def relu(x) -> Tensor:
    x = _wrap(x)

    def vjp(g):
        return (g * (x.data > 0.0),)

    return _result(np.maximum(x.data, 0.0), (x,), vjp)


def sqrt(x) -> Tensor:
    """Elementwise square root; negative round-off above -1e-9 clamps to 0."""
    x = _wrap(x)
    lo = x.data.min() if x.data.size else 0.0
    if lo < -_SQRT_SLACK:
        raise DomainError(f"sqrt of negative value {lo}")
    y = np.sqrt(np.maximum(x.data, 0.0))

    def vjp(g):
        # subgradient 0 at the clamp point
        with np.errstate(divide="ignore", invalid="ignore"):
            out = g / (2.0 * y)
        return (np.where(y > 0.0, out, 0.0),)

    return _result(y, (x,), vjp)


def log(x) -> Tensor:
    x = _wrap(x)
    if x.data.size and x.data.min() <= 0.0:
        raise DomainError(f"log of non-positive value {x.data.min()}")

    def vjp(g):
        return (g / x.data,)

    return _result(np.log(x.data), (x,), vjp)


def shift(x, c: float) -> Tensor:
    """Elementwise ``x + c`` for a python scalar ``c`` (a constant offset)."""
    x = _wrap(x)

    def vjp(g):
        return (g,)

    return _result(x.data + float(c), (x,), vjp)


def mean_all(x) -> Tensor:
    x = _wrap(x)
    n = max(x.size, 1)

    def vjp(g):
        return (np.full(x.shape, float(g) / n),)

    return _result(x.data.mean() if x.size else 0.0, (x,), vjp)


def pairwise_sqdist(a, b) -> Tensor:
    """Taped :func:`nwlearn.tensor.sqdist`: out[i, j] = ||a_i - b_j||^2."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_sqdist: shapes {a.shape} and {b.shape} do not conform")
    d = sqdist(a.data, b.data)

    def vjp(g):
        ga = 2.0 * (a.data * g.sum(axis=1)[:, None] - g @ b.data)
        gb = 2.0 * (b.data * g.sum(axis=0)[:, None] - g.T @ a.data)
        return ga, gb

    return _result(d, (a, b), vjp)


def composite_extract(net, x) -> Tensor:
    """``net.extract(x)`` as a chain of matmul, add_bias and relu nodes."""
    h = x if isinstance(x, Tensor) else Tensor(np.atleast_2d(x))
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = add_bias(matmul(h, w), b)
        if i != len(net.weights) - 1:
            h = relu(h)
    return h


def similarity(a, b) -> Tensor:
    """Pairwise similarity matrix: entry (i, j) = -||a_i - b_j||."""
    return scale(sqrt(pairwise_sqdist(a, b)), -1.0)
