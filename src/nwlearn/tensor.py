"""Dense float64 tensors with taped reverse-mode gradients.

Tensors are values wrapping numpy arrays; only an optimizer step writes a
parameter's data in place. Gradients are recorded on an explicit
:class:`Tape`: watch the parameters, run the forward pass, then call
:func:`backward` once. Ops record a node only when an input sits on a live
tape, so the identical code path serves training and inference.
:func:`sqdist` gives the squared distances of the taped NW vote, exact
k-NN, k-means and the HNSW build; :func:`softmax` is the numpy row
softmax, whose row max is a running maximum over the columns of a tall
matrix (max is exact, so the bits match the plain reduction), and
:func:`smallest_k` the one "k nearest by (distance, index)" selection.

Finiteness is checked once per value: ``Tensor(...)`` checks what it wraps,
and an op's result is checked unless it is finite by construction (a slice
of a checked value, a softmax, a vote of a softmax over one-hot labels;
each such site says why). :func:`backward` copies the parameter gradients
into one flat vector in watch order and checks it in one pass; an
optimizer made over the watched parameters reads that vector as it is.
Intermediate gradients are not checked.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .errors import ContractError, DomainError, ShapeError

# rows per column above which a running column maximum beats numpy's row max
_TALL = 32


def _all_finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()``; counting the finite entries skips the
    Python wrapper of ``.all()``, about 0.8 us of a 2 us check."""
    return np.count_nonzero(np.isfinite(x)) == x.size


class Tensor:
    """A dense float64 array, optionally attached to a Tape."""

    __slots__ = ("data", "tape")

    def __init__(self, data, tape=None):
        arr = np.asarray(data, dtype=np.float64)
        if not _all_finite(arr):
            raise DomainError("tensor contains non-finite values")
        self.data = arr
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _trusted(data, tape=None) -> Tensor:
    """A Tensor over float64 ``data`` without ``Tensor``'s finiteness pass,
    for values finite by construction; every caller says why."""
    out = Tensor.__new__(Tensor)
    out.data, out.tape = np.asarray(data), tape
    return out


class Gradients(Mapping):
    """Read-only d(loss)/d(p) per watched parameter, from :func:`backward`.

    ``flat`` holds every gradient in watch order (``params``); it is what
    an optimizer's ``step`` reads. Each value is a Tensor over its
    parameter's view of ``flat``, made on the first read: an edit in place
    reaches ``flat``, a rebound ``data`` does not, and ``rebound`` says so.
    """

    __slots__ = ("flat", "params", "_shapes", "_views")

    def __init__(self, flat: np.ndarray, params: tuple, shapes: list):
        self.flat, self.params, self._shapes, self._views = flat, params, shapes, None

    def __getitem__(self, p):
        if self._views is None:  # parameter -> (its view of flat, the value over it); flat is checked
            ends = np.cumsum([math.prod(s) for s in self._shapes], dtype=np.int64)[:-1]
            views = [part.reshape(s) for part, s in zip(np.split(self.flat, ends), self._shapes)]
            self._views = {q: (v, _trusted(v)) for q, v in zip(self.params, views)}
        return self._views[p][1]

    def rebound(self) -> bool:
        """Whether a value read so far no longer holds its view of ``flat``."""
        return self._views is not None and any(t.data is not view for view, t in self._views.values())

    def __iter__(self):
        return iter(self.params)

    def __len__(self):
        return len(self.params)


class Tape:
    """Ordered record of primitive ops for one reverse sweep.

    Single-owner: never share a tape across threads, and call
    :func:`backward` at most once. Nodes are appended in execution order,
    which is already topological.
    """

    def __init__(self):
        self._nodes = []  # (out, inputs, vjp) in execution order
        self._watched = []
        self._consumed = False

    def watch(self, *tensors: Tensor):
        """Mark parameters whose gradients :func:`backward` should return."""
        if self._consumed:
            raise ContractError("tape already consumed")
        for t in tensors:
            if t.tape is not None and t.tape is not self and not t.tape._consumed:
                raise ContractError("tensor is already watched on another live tape")
            if t.tape is not self:
                t.tape = self
                self._watched.append(t)

    def _record(self, out, inputs, vjp):
        self._nodes.append((out, inputs, vjp))


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of squared Euclidean distances: out[i, j] = ||a_i - b_j||^2.

    Computed via the inner-product expansion (aa + bb) - 2ab and clipped at
    0 to absorb negative round-off.
    """
    ab = a @ b.T
    ab *= 2.0
    out = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)
    out -= ab
    return np.maximum(out, 0.0, out=out)


def smallest_k(d: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of ``d``,
    ordered by (value, column): the first k columns of a stable argsort.

    A partition keeps k entries per row and only those are sorted; rows
    where a value tied with the k-th also sits beyond position k, possibly
    at a lower column, fall back to the stable argsort.
    """
    part = np.argpartition(d, k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(d, part, axis=1)
    out = np.take_along_axis(part, np.lexsort((part, vals), axis=1), axis=1)
    straddle = np.flatnonzero(np.count_nonzero(d <= vals.max(axis=1, keepdims=True), axis=1) > k)
    if straddle.size:
        out[straddle] = np.argsort(d[straddle], axis=1, kind="stable")[:, :k]
    return out


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1, keepdims=True)``, bit for bit. A matrix at least
    ``_TALL`` times taller than it is wide takes a running maximum over its
    columns: numpy reduces a short last axis one row at a time, about 70 ns
    a row, while each column of the running maximum costs about 1.5 us."""
    if not 0 < _TALL * x.shape[1] <= x.shape[0]:
        return x.max(axis=1, keepdims=True)
    out = x[:, :1].copy()
    for j in range(1, x.shape[1]):
        np.maximum(out, x[:, j:j + 1], out=out)
    return out


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)``, bit for bit. A matrix of two columns at least
    ``_TALL`` times taller than wide adds its columns: numpy reduces a short
    last axis one row at a time, 55 us over 3000 rows against 3.5 us per
    column add. numpy's reduction computes x0 + (0.0 + x1), which turns a
    row of two -0.0 into 0.0; so does the column add here."""
    if x.shape[1] != 2 or x.shape[0] < 2 * _TALL:
        return x.sum(axis=1)
    out = x[:, 1] + 0.0
    out += x[:, 0]
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a matrix with per-row max subtraction for stability."""
    e = np.exp(x - _row_max(x))
    return e / _row_sum(e)[:, None]


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _live_tape(*tensors):
    tape = None
    for t in tensors:
        if isinstance(t, Tensor) and t.tape is not None and not t.tape._consumed:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ContractError("inputs come from two different live tapes")
    return tape


def _result(value, inputs, vjp, finite: bool = False):
    """The op's output, recorded on the inputs' live tape if any; ``finite``
    skips the check of a value that is finite by construction."""
    tape = _live_tape(*inputs)
    out = _trusted(value, tape) if finite else Tensor(value, tape=tape)
    if tape is not None:
        tape._record(out, inputs, vjp)
    return out


def add(a, b) -> Tensor:
    """Elementwise sum of equal-shaped tensors."""
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def vjp(g):
        return g, g

    return _result(a.data + b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    """Hadamard product of equal-shaped tensors."""
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")

    def vjp(g):
        return g * b.data, g * a.data

    return _result(a.data * b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    return add(a, scale(_wrap(b), -1.0))


def scale(x, c: float) -> Tensor:
    x = _wrap(x)
    c = float(c)

    def vjp(g):
        return (c * g,)

    return _result(c * x.data, (x,), vjp)


def sum_all(x) -> Tensor:
    x = _wrap(x)

    def vjp(g):
        return (np.full(x.shape, float(g)),)

    return _result(x.data.sum(), (x,), vjp)


def softmax_rows(x) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a matrix, got shape {x.shape}")
    s = softmax(x.data)

    def vjp(g):
        return (s * (g - _row_sum(g * s)[:, None]),)

    # exp(x - row max) lies in [0, 1] with a row sum >= 1
    return _result(s, (x,), vjp, finite=True)


def take_rows(x, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a matrix; the gradient scatters back into zeros."""
    x = _wrap(x)
    if x.data.ndim != 2 or not 0 <= start <= stop <= x.shape[0]:
        raise ShapeError(f"take_rows: rows {start}:{stop} of shape {x.shape}")

    def vjp(g):
        full = np.zeros(x.shape)
        full[start:stop] = g
        return (full,)

    # a slice of a checked value
    return _result(x.data[start:stop], (x,), vjp, finite=True)


def backward(tape: Tape, loss: Tensor) -> Gradients:
    """Reverse sweep over the tape; returns d(loss)/d(p) per watched parameter.

    The gradients are copied into one flat float64 vector in watch order,
    which one ``isfinite`` pass checks (DomainError if any value is not
    finite); each parameter's gradient is a view of it. Consumes the tape:
    watched tensors are detached and the tape cannot be reused. Parameters
    unreachable from the loss get zero gradients; an empty watch list
    yields an empty map.
    """
    if tape._consumed:
        raise ContractError("tape already consumed")
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for out, inputs, vjp in reversed(tape._nodes):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, gi in zip(inputs, vjp(g)):
            acc = grads.get(id(t))
            grads[id(t)] = gi if acc is None else acc + gi
    watched = tuple(tape._watched)
    shapes, parts = [], []
    for p in watched:
        g = grads.get(id(p))
        shapes.append(p.data.shape)
        parts.append(np.zeros(p.data.size) if g is None else g.ravel())
        p.tape = None
    tape._nodes.clear()
    tape._consumed = True
    flat = np.concatenate(parts) if parts else np.zeros(0)
    if not _all_finite(flat):
        raise DomainError("backward: non-finite gradient")
    return Gradients(flat, watched, shapes)


def grad_check(f, params: list[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between taped gradients of ``f()`` and central
    finite differences over every coordinate of ``params``.

    ``f`` must be a deterministic scalar-producing function of the current
    parameter values. Relative error is |analytic - numeric| / max(1, |numeric|).
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    tape = Tape()
    tape.watch(*params)
    loss = f()
    if not np.isfinite(loss.data).all():
        raise DomainError("f evaluated to a non-finite value")
    grads = backward(tape, loss)
    worst = 0.0
    for p in params:
        analytic = grads[p].data.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f().item()
            flat[i] = orig - eps
            down = f().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
