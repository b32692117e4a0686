"""The Nadaraya-Watson head.

A prediction is a kernel-weighted vote over support labels: softmax over
similarities between the query feature and every support feature, then a
matrix product with the one-hot support labels. Similarity is the negative
Euclidean distance with temperature fixed at 1. ``nw_predict`` is the
taped vote that training differentiates. Inference votes on plain arrays:
``nw_vote_shared`` over one support shared by every query, optionally
class-weighted, and ``nw_vote`` over a support given per query (k nearest
neighbours).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import (
    Tensor,
    add,
    log,
    matmul,
    mul,
    pairwise_sqdist,
    scale,
    softmax,
    softmax_rows,
    sqdist,
    sqrt,
    sum_all,
)

# keeps the log in cross_entropy finite when a class weight underflows
_CE_EPS = 1e-15

# queries per block of nw_vote_shared, which then holds (block, m) float64
# temporaries instead of (nq, m) ones; 32 and 64 timed fastest on a
# 600 x 3000 x 16 vote (one BLAS thread, 2-core Xeon)
_VOTE_BLOCK = 64


def similarity(a, b) -> Tensor:
    """Pairwise similarity matrix: entry (i, j) = -||a_i - b_j||."""
    return scale(sqrt(pairwise_sqdist(a, b)), -1.0)


def nw_predict(query_feats, support) -> Tensor:
    """Kernel-weighted vote over support labels, one simplex row per query.

    ``support`` is a SupportBatch whose ``features`` live in the same space
    as ``query_feats``. Differentiable end-to-end when the inputs sit on a
    live tape.
    """
    labels = np.asarray(support.onehot_labels, dtype=np.float64)
    if labels.shape[0] == 0:
        raise ContractError("nw_predict needs a non-empty support set")
    weights = softmax_rows(similarity(query_feats, support.features))
    return matmul(weights, Tensor(labels))


def nw_vote_shared(q: np.ndarray, feats: np.ndarray, onehot_labels: np.ndarray,
                   class_weights: np.ndarray | None = None) -> np.ndarray:
    """Untaped NW vote of every query ``q`` (nq, d) over one support
    ``feats`` (m, d) with one-hot labels (m, C).

    ``class_weights`` (C,) weights every row of class c by
    ``class_weights[c]``: the softmax over -distance + log(weight), since
    the weight is constant within a class. Queries go through in blocks of
    ``_VOTE_BLOCK`` rows; each block's distance matrix is turned in place
    into exp(min distance - distance) and summed per class by one GEMM.
    """
    out = np.empty((len(q), onehot_labels.shape[1]))
    for start in range(0, len(q), _VOTE_BLOCK):
        w = sqdist(q[start:start + _VOTE_BLOCK], feats)
        np.sqrt(w, out=w)
        np.subtract(w.min(axis=1, keepdims=True), w, out=w)
        np.exp(w, out=w)
        votes = w @ onehot_labels
        if class_weights is not None:
            votes *= class_weights
        votes /= votes.sum(axis=1, keepdims=True)
        out[start:start + len(votes)] = votes
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
    """Mean negative log-probability of the true class.

    Only the true-class probabilities are selected before the log, so zero
    weights on other classes never hit the log domain check.
    """
    probs = pred_probs if isinstance(pred_probs, Tensor) else Tensor(pred_probs)
    labels = np.asarray(onehot_labels, dtype=np.float64)
    n, c = labels.shape
    if probs.shape != (n, c):
        raise ContractError(f"predictions {probs.shape} do not match labels {labels.shape}")
    true_probs = matmul(mul(probs, Tensor(labels)), Tensor(np.ones((c, 1))))
    return scale(sum_all(log(add(true_probs, _CE_EPS))), -1.0 / n)


def onehot(labels, n_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    return np.eye(n_classes, dtype=np.float64)[y]
