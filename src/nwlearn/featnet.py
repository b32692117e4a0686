"""Feature extractor: a small MLP mapping input vectors to feature vectors.

Relu on every layer but the last. The parametric ERM baselines and the
frozen-feature probe score a ``linear_head``, a one-layer net whose features
are the class logits: zero for ERM to train, ``_fit_logistic``'s optimum for
the probe (``logistic_head``, whose softmax is the fitted sigmoid for two
classes). The whole net is one taped node whenever the input or a parameter
sits on a live tape; otherwise extraction is a pure numpy evaluation that
keeps no intermediate. Untaped, the layers run over blocks of rows whose
hidden temporaries stay under glibc's default 128 KiB mmap threshold, so the
heap reuses them where whole-input layers would be fresh pages, faulted in
on every call.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .rng import Rng
from .tensor import Tensor, _all_finite, _live_tape

DEFAULT_HIDDEN_DIMS = (64, 64)
DEFAULT_FEATURE_DIM = 16

# bytes of one hidden temporary of the untaped forward: half of glibc's
# default 128 KiB mmap threshold, which is 128 rows at the default dims
_BLOCK_BYTES = 64 * 1024


def _checked_dims(layer_dims) -> list[int]:
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ConfigError(f"layer_dims needs >= 2 positive entries, got {layer_dims}")
    return dims


class FeatureNet:
    """Fully-connected feature extractor.

    Weights are fan-in-scaled zero-mean normal draws; biases start at zero.
    """

    def __init__(self, layer_dims, rng: Rng):
        dims = self.layer_dims = _checked_dims(layer_dims)
        self.weights = []
        self.biases = []
        for din, dout in zip(dims[:-1], dims[1:]):
            w = rng.normal(0.0, 1.0 / np.sqrt(din), size=(din, dout))
            self.weights.append(Tensor(w))
            self.biases.append(Tensor(np.zeros(dout)))

    @classmethod
    def from_weights(cls, layer_dims, weights, biases) -> "FeatureNet":
        """Rebuild a net from raw arrays, one weight and one bias per layer."""
        net = cls.__new__(cls)
        net.layer_dims = _checked_dims(layer_dims)
        if len(weights) != len(net.layer_dims) - 1 or len(biases) != len(net.layer_dims) - 1:
            raise ConfigError(f"{len(weights)} weights and {len(biases)} biases for layer_dims {net.layer_dims}")
        net.weights = [Tensor(np.asarray(w, dtype=np.float64)) for w in weights]
        net.biases = [Tensor(np.asarray(b, dtype=np.float64)) for b in biases]
        for w, b, din, dout in zip(net.weights, net.biases, net.layer_dims[:-1], net.layer_dims[1:]):
            if w.shape != (din, dout) or b.shape != (dout,):
                raise ConfigError(f"weight {w.shape} and bias {b.shape} do not match dims ({din}, {dout})")
        return net

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[-1]

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def extract(self, inputs) -> Tensor:
        """Apply the net row-wise to an (n, input_dim) matrix.

        Each layer is ``h @ W + b``, then a relu but for the last; a
        non-finite pre-activation raises DomainError. The result is one
        taped node exactly when the input or a parameter is on a live tape.
        The node keeps the post-relu activations, and its VJP runs the
        matmul/add/relu chain in reverse, bit for bit. Untaped, the layers
        run in place over blocks of rows (``_BLOCK_BYTES`` per hidden
        temporary) into one (n, feature_dim) output and keep nothing. A
        1-row tail joins the block before it: BLAS takes another kernel for
        one row, while GEMM rows from two rows up match the whole-input
        product bit for bit.
        """
        x = inputs if isinstance(inputs, Tensor) else Tensor(np.atleast_2d(inputs))
        if x.data.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"extract: inputs {x.shape} do not match input_dim {self.input_dim}")
        params = self.parameters()
        tape = _live_tape(x, *params)
        if tape is None:
            return Tensor(self._untaped(x.data))
        x_taped, last = x.tape is tape, len(self.weights) - 1
        acts = [x.data]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            acts.append(_layer(acts[-1], w.data, b.data, i, i != last))

        def vjp(g):
            grads = []
            for i in range(last, -1, -1):
                if i != last:
                    g *= acts[i + 1] > 0.0  # in place: g is the product made at the layer above
                grads += [g.sum(axis=0), acts[i].T @ g]
                if i or x_taped:
                    g = g @ self.weights[i].data.T
            return ([g] if x_taped else []) + grads[::-1]

        out = Tensor(acts[-1], tape=tape)
        tape._record(out, (x, *params) if x_taped else tuple(params), vjp)
        return out

    def _untaped(self, x: np.ndarray) -> np.ndarray:
        n, last = len(x), len(self.weights) - 1
        out = np.empty((n, self.feature_dim))
        rows = max(2, _BLOCK_BYTES // (8 * max(self.layer_dims[1:])))
        bounds = list(range(0, n, rows)) + [n]
        if len(bounds) > 2 and n - bounds[-2] == 1:
            del bounds[-2]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            h = x[start:stop]
            for i in range(last):
                h = _layer(h, self.weights[i].data, self.biases[i].data, i, True)
            h = np.matmul(h, self.weights[last].data, out=out[start:stop])
            h += self.biases[last].data
        return out


def _layer(h: np.ndarray, w: np.ndarray, b: np.ndarray, i: int, relu: bool) -> np.ndarray:
    """``h @ w + b`` in one new array, then the checked relu of layer ``i``."""
    h = h @ w
    h += b
    if relu:
        if not _all_finite(h):
            raise DomainError(f"extract: non-finite pre-activation in layer {i}")
        np.maximum(h, 0.0, out=h)
    return h


def linear_head(feature_dim: int, n_classes: int) -> FeatureNet:
    """Zero-initialized linear classifier over feature vectors: a one-layer
    net whose ``extract`` gives the logits of ``n_classes >= 2`` classes."""
    if n_classes < 2:
        raise ConfigError(f"a head needs >= 2 classes, got {n_classes}")
    return FeatureNet.from_weights([feature_dim, n_classes], [np.zeros((feature_dim, n_classes))],
                                   [np.zeros(n_classes)])


def logistic_head(feats: np.ndarray, labels: np.ndarray, n_classes: int, reg: float) -> FeatureNet:
    """``linear_head`` of ``_fit_logistic(feats, labels == c, reg)`` fits.

    Two classes take one fit z of class 1 as the columns (-z/2, z/2), so the
    softmax over them is the fitted sigmoid(z). Three or more are one-vs-rest:
    column c is the fit of "class c or not", and the softmax over those
    log-odds ranks the classes as the fits do but is not a fitted probability.
    A class of no row or of every row has no finite optimum; its fit is a zero
    slope and the bias log((n_c + 1/2) / (n - n_c + 1/2)), so one class
    predicts itself."""
    head = linear_head(feats.shape[1], n_classes)
    w, b = head.weights[0].data, head.biases[0].data
    for c in range(1 if n_classes == 2 else 0, n_classes):
        y = (labels == c).astype(np.float64)
        if 0 < y.sum() < len(y):
            w[:, c], b[c] = _fit_logistic(feats, y, reg=reg)
        else:
            b[c] = np.log((y.sum() + 0.5) / (len(y) - y.sum() + 0.5))
    if n_classes == 2:
        w[:, 1] /= 2.0
        b[1] /= 2.0
        w[:, 0], b[0] = -w[:, 1], -b[1]
    return head


def _fit_logistic(z: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None,
                  reg: float = 0.02):
    """Binary logistic regression, optionally with per-row weights and an
    L2 term on the slope, fitted by Newton's method (IRLS) until the
    largest step is below 1e-10 (at most 50 steps): the converged optimum,
    independent of any step size. The small default L2 term trades a bias
    shared across per-environment fits for less variance, so the invariance
    gap reflects posterior differences rather than near-boundary noise.
    """
    weights = np.full(len(y), 1.0 / len(y)) if weights is None else weights / weights.sum()
    x = np.hstack([z, np.ones((len(z), 1))])
    ridge = np.diag(np.r_[np.full(z.shape[1], reg), 0.0])
    beta = np.zeros(x.shape[1])
    for _ in range(50):
        p = 1.0 / (1.0 + np.exp(-(x @ beta)))
        hess = x.T @ (x * (weights * p * (1.0 - p))[:, None]) + ridge
        step = np.linalg.solve(hess, x.T @ (weights * (p - y)) + ridge @ beta)
        beta -= step
        if np.abs(step).max() < 1e-10:
            break
    return beta[:-1], beta[-1]
