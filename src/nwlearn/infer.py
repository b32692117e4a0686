"""Test-time inference modes over a frozen feature extractor.

All modes precompute training features once into a FeatureCache and then
apply an NW vote with differently assembled supports: Random (k per
class: the rows that the training sampler ``support.sample_support``
draws from the cache, voting with their cached features and labels), Full
(entire training set, class-balanced by per-class weights), Ensemble
(average of per-environment predictions), Cluster (per-class k-means
centroids), exact k-NN and HNSW, plus a converged logistic probe on the
frozen features. Supports shared by every query (Random, Full,
Ensemble, Cluster, and exact k-NN at k = |cache|) vote through the
row-blocked ``nwhead.nw_vote_shared``; k-NN and HNSW, whose support
differs by query, through ``nwhead.nw_vote``. Exact k-NN at k = |cache|
is the unweighted vote over every training row, the support
``nw_unbalanced`` is selected and tested on; the other NW variants are
selected on Full. Random, Full and Cluster take their class buckets from
``support._class_bucket``, so an empty class raises the sampler's
``CoverageError``. A non-finite query value raises ``DomainError`` in every
mode and in ``dump_neighbors``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractError, CoverageError, DomainError
from .featnet import FeatureNet, logistic_head
from .hnsw import HnswIndex
from .kmeans import kmeans
from .nwhead import nw_vote, nw_vote_shared, onehot
from .rng import Rng
from .support import SupportSpec, _class_bucket, sample_support
from .tensor import smallest_k, softmax_rows, sqdist

log = logging.getLogger(__name__)

MODE_KINDS = ("random", "full", "ensemble", "cluster", "knn", "hnsw", "probe")
_DEFAULT_K = {"random": 3, "cluster": 3, "knn": 20, "hnsw": 20}


@dataclass
class InferenceMode:
    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise ConfigError(f"unknown inference mode {self.kind!r}; choose from {MODE_KINDS}")
        if self.k is None:
            self.k = _DEFAULT_K.get(self.kind)
        elif self.kind not in _DEFAULT_K:
            raise ConfigError(f"inference mode {self.kind!r} takes no k, got {self.k}")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


class FeatureCache(Dataset):
    """Precomputed features for every training example: a ``Dataset`` whose
    rows are feature vectors, read as ``features``, ``labels`` and ``envs``."""

    def __init__(self, features: np.ndarray, labels, envs, n_classes: int):
        self._set_columns(features, labels, envs, n_classes, None)

    features = property(lambda self: self.X)
    labels = property(lambda self: self.y)
    envs = property(lambda self: self.e)


def build_cache(net: FeatureNet, ds_train: Dataset) -> FeatureCache:
    """Extract features for the whole training set with a frozen net; the
    cache shares the training set's labels, environments and buckets."""
    return FeatureCache.like(ds_train, net.extract(ds_train.X).data)


def _balanced_weights(buckets) -> np.ndarray:
    """Class-balance by weighting every row of class c at max_count/count_c.

    The exact fractional form of duplicating minority rows up to the
    majority count: every datapoint participates, the vote is unchanged
    when counts already match, and the result cannot depend on row order.
    ``buckets`` holds the rows of each class 0..C-1 in order; returns the
    (C,) per-class weights, 0 for a class without rows.
    """
    sizes = [len(b) for b in buckets]
    target = max(sizes)
    return np.array([target / n if n else 0.0 for n in sizes])


def _queries(query_feats) -> np.ndarray:
    """Query features as a 2-D float64 array; raises DomainError on a
    non-finite value, which would otherwise vote as a row of NaNs."""
    q = np.atleast_2d(np.asarray(query_feats, dtype=np.float64))
    if not np.isfinite(q).all():
        raise DomainError("query features must be finite")
    return q


def predict(mode: InferenceMode, cache: FeatureCache, query_feats, rng: Rng | None = None,
            probe: FeatureNet | None = None) -> np.ndarray:
    """Per-query class simplices under the requested inference mode."""
    q = _queries(query_feats)
    rng = rng if rng is not None else Rng(0)
    classes = range(cache.n_classes)

    if mode.kind == "random":
        rows = sample_support(cache, SupportSpec(n_per_class=mode.k), (), rng)
        return nw_vote_shared(q, cache.features[rows], onehot(cache.labels[rows], cache.n_classes))

    if mode.kind == "full":
        weights = _balanced_weights([_class_bucket(cache, None, c) for c in classes])
        return nw_vote_shared(q, cache.features, onehot(cache.labels, cache.n_classes), weights)

    if mode.kind == "ensemble":
        per_env = []
        for env in cache.env_ids:
            buckets = [cache.by_env_class[(env, c)] for c in classes]
            missing = [c for c in classes if len(buckets[c]) == 0]
            if missing:
                log.warning("environment %s is missing classes %s; its vote covers the rest", env, missing)
            rows = cache.by_env[env]
            per_env.append(nw_vote_shared(q, cache.features[rows], onehot(cache.labels[rows], cache.n_classes),
                                          _balanced_weights(buckets)))
        return np.mean(per_env, axis=0)

    if mode.kind == "cluster":
        feats_parts, label_parts = [], []
        for c in classes:
            bucket = _class_bucket(cache, None, c)
            k = mode.k
            if k > len(bucket):
                log.warning("cluster k=%d exceeds class %d bucket size %d; reducing", k, c, len(bucket))
                k = len(bucket)
            centroids, _, _ = kmeans(cache.features[bucket], k, rng)
            feats_parts.append(centroids)
            label_parts.extend([c] * len(centroids))
        return nw_vote_shared(q, np.concatenate(feats_parts), onehot(label_parts, cache.n_classes))

    if mode.kind in ("knn", "hnsw"):
        return knn_predict(cache, q, mode.k, exact=(mode.kind == "knn"), rng=rng)

    if mode.kind == "probe":
        if probe is None:
            raise ContractError("probe mode needs a trained probe (see train_probe)")
        return softmax_rows(probe.extract(q)).data

    raise ConfigError(f"unknown inference mode {mode.kind!r}")


def _exact_neighbors(cache: FeatureCache, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances) of the k nearest cached rows per query; ties in
    distance break toward the lower dataset index."""
    d2 = sqdist(q, cache.features)
    idx = smallest_k(d2, k)
    return idx, np.sqrt(np.take_along_axis(d2, idx, axis=1))


def knn_predict(cache: FeatureCache, query_feats, k: int, exact: bool = True,
                rng: Rng | None = None, index: HnswIndex | None = None) -> np.ndarray:
    """NW vote restricted to the k nearest cached rows per query.

    At k = |cache| the exact neighbour set is every row, so the vote runs
    over the whole cache without sorting.
    """
    if k < 1 or k > len(cache):
        raise ContractError(f"k must be in [1, {len(cache)}], got {k}")
    q = _queries(query_feats)
    if exact and k == len(cache):
        return nw_vote_shared(q, cache.features, onehot(cache.labels, cache.n_classes))
    if exact:
        idx, dist = _exact_neighbors(cache, q, k)
    else:
        if index is None:
            index = HnswIndex(cache.features, rng=rng if rng is not None else Rng(0))
        idx = np.empty((len(q), k), dtype=np.int64)
        dist = np.empty((len(q), k))
        for i, row in enumerate(q):
            found, found_dist = index.search(row, k)
            if len(found) < k:
                raise CoverageError(f"HNSW search found {len(found)} ids for query {i}, fewer than k = {k}")
            idx[i], dist[i] = found, found_dist
    return nw_vote(-dist, onehot(cache.labels[idx], cache.n_classes))


def train_probe(cache: FeatureCache) -> FeatureNet:
    """The linear probe on the cached (frozen) features: ``logistic_head``
    at the solver's default ridge, 0.02, fixed rather than tuned on a split."""
    return logistic_head(cache.features, cache.labels, cache.n_classes, reg=0.02)


def dump_neighbors(cache: FeatureCache, query_feats, top_k: int):
    """Ranked nearest neighbors per query plus the averaged environment
    histogram of those neighbors.

    Returns (neighbors, histogram): ``neighbors[i]`` is a list of
    (dataset index, distance, label, env) ascending by distance with ties
    broken by index; ``histogram`` maps env id to its normalized share
    among the top_k across all queries.
    """
    if top_k < 1 or top_k > len(cache):
        raise ContractError(f"top_k must be in [1, {len(cache)}], got {top_k}")
    idx, dist = _exact_neighbors(cache, _queries(query_feats), top_k)
    neighbors = [[(i, d, int(cache.labels[i]), int(cache.envs[i])) for i, d in zip(row_idx, row_dist)]
                 for row_idx, row_dist in zip(idx.tolist(), dist.tolist())]
    envs = cache.envs[idx]
    return neighbors, {env: float((envs == env).sum() / max(envs.size, 1)) for env in cache.env_ids}
