"""The Nadaraya-Watson head.

A prediction is a kernel-weighted vote over support labels: softmax over
similarities between the query feature and every support feature, then a
matrix product with the one-hot support labels. Similarity is the negative
Euclidean distance with temperature fixed at 1. ``nw_predict`` is the
taped vote that training differentiates; ``nw_vote`` is the same vote on
plain arrays, which every inference mode calls.
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
    sqrt,
    sum_all,
)

# keeps the log in cross_entropy finite when a class weight underflows
_CE_EPS = 1e-15


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


def nw_vote(logits: np.ndarray, onehot_labels: np.ndarray) -> np.ndarray:
    """Untaped NW vote: softmax over each query's row of ``logits``, then
    the weighted sum of support labels.

    ``onehot_labels`` is shared by every query (m, C) or given per query
    (nq, m, C), for supports such as k nearest neighbours that differ by
    query.
    """
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
