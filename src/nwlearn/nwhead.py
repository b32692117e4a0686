"""The Nadaraya-Watson head.

A prediction is a kernel-weighted vote over support labels: softmax over
similarities between the query feature and every support feature, then a
matrix product with the one-hot support labels. Similarity is the negative
Euclidean distance with temperature fixed at 1. Training differentiates
the taped ``nw_predict(query_feats, support_feats, onehot_labels)``, which
checks that the labels are one-hot. Inference votes on plain arrays:
``nw_vote_shared`` over one support shared by every query, optionally
class-weighted, and ``nw_vote`` over a support given per query (k nearest
neighbours). ``nw_vote_shared`` takes its distances from one GEMM over
augmented rows into one buffer: within the last ulp of a vote on ``sqdist``.
It exponentiates -distance without a per-row min shift unless a block's
norms allow a distance above ``_SHIFT_BOUND``, where exp could underflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .tensor import Tensor, _all_finite, _result, _wrap, softmax, sqdist

# keeps the log in cross_entropy finite when a class weight underflows
_CE_EPS = 1e-15

# queries per block of nw_vote_shared, which then holds one (block, m)
# float64 buffer; in traced train_nw (seed 3, 5 alternating runs, one BLAS
# thread, 2-core Xeon) infer.predict.full.s read 0.436 s at 32, 0.441 s at 64
_VOTE_BLOCK = 32

# distance below which nw_vote_shared needs no shift: exp(-700) ~ 1e-304 is
# still a normal double, so no weight and no row sum can underflow
_SHIFT_BOUND = 700.0


def nw_predict(query_feats, support_feats, onehot_labels) -> Tensor:
    """Kernel-weighted vote over support labels, one simplex row per query.

    ``support_feats`` (m, d) live in the same space as ``query_feats``, and
    ``onehot_labels`` (m, C) hold one 1 per row. Differentiable end-to-end
    when the inputs sit on a live tape, as one taped node: the forward is
    the row-wise softmax of the similarities -||q_i - s_j||, times the
    labels, and the hand-written VJP runs that chain backwards (a zero
    distance gets the square root's subgradient 0).
    """
    labels = np.asarray(onehot_labels, dtype=np.float64)
    q, s = _wrap(query_feats), _wrap(support_feats)
    if (q.data.ndim != 2 or s.data.ndim != 2 or labels.ndim != 2 or q.shape[1] != s.shape[1]
            or s.shape[0] != labels.shape[0]):
        raise ShapeError(f"nw_predict: queries {q.shape}, support {s.shape}, labels {labels.shape}")
    # a one-hot row equals the identity row at its argmax
    if not (labels.size and (labels == _identity(labels.shape[1])[labels.argmax(axis=1)]).all()):
        raise ContractError("nw_predict needs a non-empty support whose onehot_labels rows have exactly one 1")
    dist = sqdist(q.data, s.data)
    if not _all_finite(dist):
        raise DomainError("nw_predict: non-finite squared distance")
    np.sqrt(dist, out=dist)
    weights = softmax(-1.0 * dist)

    def vjp(g):
        dw = g @ labels.T
        dw -= (dw * weights).sum(axis=1, keepdims=True)
        dw *= weights
        # dw / -2D, and 0 where D = 0
        d2 = np.divide(dw, -2.0 * dist, out=np.zeros(dw.shape), where=dist != 0.0)
        gq = 2.0 * (q.data * d2.sum(axis=1)[:, None] - d2 @ s.data)
        gs = 2.0 * (s.data * d2.sum(axis=0)[:, None] - d2.T @ q.data)
        return gq, gs

    # softmax weights of checked distances times checked one-hot labels
    return _result(weights @ labels, (q, s), vjp, finite=True)


def nw_vote_shared(q: np.ndarray, feats: np.ndarray, onehot_labels: np.ndarray,
                   class_weights: np.ndarray | None = None) -> np.ndarray:
    """Untaped NW vote of every query ``q`` (nq, d) over one support
    ``feats`` (m, d) with one-hot labels (m, C).

    ``class_weights`` (C,) weights every row of class c by
    ``class_weights[c]``: the softmax over -distance + log(weight), since
    the weight is constant within a class. Per block of ``_VOTE_BLOCK``
    queries, one GEMM of [q, ||q||^2, 1] with [-2 F^T; 1; ||f||^2] writes
    the squared distances into one reused (block, m) buffer, which is
    clipped at 0, turned into exp(shift - distance) and summed per class by
    a second GEMM: within the last ulp of a vote on ``sqdist``. The shift
    is 0 unless the block's bound on every distance, max ||q|| + max ||f||
    from the squared norms in the augmented rows, exceeds ``_SHIFT_BOUND``;
    then it is each row's min distance.
    """
    out = np.empty((len(q), onehot_labels.shape[1]))
    support, queries = np.empty((feats.shape[1] + 2, len(feats))), np.empty((len(q), q.shape[1] + 2))
    np.multiply(feats.T, -2.0, out=support[:-2])
    support[-2], support[-1] = 1.0, (feats * feats).sum(axis=1)
    queries[:, :-2], queries[:, -2], queries[:, -1] = q, (q * q).sum(axis=1), 1.0
    w_buf = np.empty((min(len(q), _VOTE_BLOCK), len(feats)))
    max_f_norm = np.sqrt(support[-1].max(initial=0.0))
    for start in range(0, len(q), _VOTE_BLOCK):
        block = queries[start:start + _VOTE_BLOCK]
        w = np.matmul(block, support, out=w_buf[:len(block)])
        np.maximum(w, 0.0, out=w)
        np.sqrt(w, out=w)
        far = np.sqrt(block[:, -2].max()) + max_f_norm > _SHIFT_BOUND
        np.subtract(w.min(axis=1, keepdims=True) if far else 0.0, w, out=w)
        np.exp(w, out=w)
        votes = np.matmul(w, onehot_labels, out=out[start:start + len(block)])
        if class_weights is not None:
            votes *= class_weights
        votes /= votes.sum(axis=1, keepdims=True)
    return out


def nw_vote(logits: np.ndarray, onehot_labels: np.ndarray) -> np.ndarray:
    """Untaped NW vote over a support given per query: softmax over each
    query's row of ``logits`` (nq, k), then the weighted sum of that
    query's one-hot labels (nq, k, C). Used for supports such as the k
    nearest neighbours, which differ by query.
    """
    if onehot_labels.ndim != 3:
        raise ContractError(f"nw_vote needs per-query labels (nq, k, C), got shape {onehot_labels.shape}")
    w = softmax(logits)
    return np.matmul(w[:, None, :], onehot_labels)[:, 0]


def cross_entropy(pred_probs, onehot_labels) -> Tensor:
    """Mean negative log-probability of the true class, as one taped node.

    Only the true-class probabilities are selected before the log, so zero
    weights on other classes never hit the log domain check.
    """
    probs = _wrap(pred_probs)
    labels = np.asarray(onehot_labels, dtype=np.float64)
    n, c = labels.shape
    if probs.shape != (n, c):
        raise ContractError(f"predictions {probs.shape} do not match labels {labels.shape}")
    coef = -1.0 / n
    true_probs = (probs.data * labels).sum(axis=1) + _CE_EPS
    if true_probs.min() <= 0.0:
        raise DomainError(f"log of non-positive value {true_probs.min()}")
    value = coef * np.log(true_probs).sum()
    if not math.isfinite(value):
        raise DomainError(f"cross_entropy: non-finite loss {value}")

    def vjp(g):
        return (((coef * g) / true_probs)[:, None] * labels,)

    # checked above as one float, not by Tensor's array pass
    return _result(value, (probs,), vjp, finite=True)


@lru_cache
def _identity(n_classes: int) -> np.ndarray:
    eye = np.eye(n_classes, dtype=np.float64)
    eye.flags.writeable = False
    return eye


def onehot(labels, n_classes: int) -> np.ndarray:
    """(n, n_classes) float64 rows with a 1 at each label; rows of one kept
    identity, gathered into a new array."""
    return _identity(n_classes)[np.asarray(labels, dtype=np.int64)]
