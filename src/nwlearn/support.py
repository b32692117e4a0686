"""Support-set samplers.

The causal assumptions live here: class balancing acts as an intervention
on the label (removing the environment's influence on class prevalence),
and conditioning on a single environment precludes votes that lean on
environment-specific features. Sampling happens once per query mini-batch,
and the support labels must cover the query labels. Every sampler returns
int64 row indices into the dataset it draws from; the caller gathers the
rows' inputs or features and labels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, CoverageError
from .rng import Rng

log = logging.getLogger(__name__)


@dataclass
class SupportSpec:
    """What to sample: class balancing, environment conditioning, size."""

    balanced: bool = True
    env: int | None = None
    n_per_class: int = 8

    def __post_init__(self):
        if self.n_per_class < 1:
            raise ConfigError(f"n_per_class must be >= 1, got {self.n_per_class}")


def _class_bucket(ds: Dataset, env: int | None, c: int) -> np.ndarray:
    bucket = ds.by_class[c] if env is None else ds.by_env_class[(env, c)]
    if len(bucket) == 0:
        where = "" if env is None else f" in environment {env}"
        raise CoverageError(f"no examples of class {c}{where}", env=env, class_id=c)
    return bucket


def sample_support(ds: Dataset, spec: SupportSpec, query_labels, rng: Rng) -> np.ndarray:
    """Row indices (int64) of one support set drawn according to ``spec``.

    Balanced mode cycles through every class and draws exactly
    ``n_per_class`` examples from each, without replacement inside a class
    (with replacement plus a warning when a bucket is smaller than that).
    Unbalanced mode guarantees coverage with one example per class, then
    fills the remainder uniformly. Raises CoverageError naming the missing
    (env, class) pair when a required bucket is empty.
    """
    if spec.env is not None and spec.env not in ds.by_env:
        raise ConfigError(f"environment {spec.env} not present in dataset")
    labels = np.asarray(query_labels if isinstance(query_labels, np.ndarray) else list(query_labels),
                        dtype=np.int64)
    # a negative label wraps past every class id as uint64
    if np.count_nonzero(labels.astype(np.uint64) >= ds.n_classes):
        outside = sorted({int(c) for c in labels} - set(range(ds.n_classes)))
        raise CoverageError(
            f"query labels {outside} are not classes of the dataset",
            class_id=outside[0],
        )

    if spec.balanced:
        parts = []
        for c in range(ds.n_classes):
            bucket = _class_bucket(ds, spec.env, c)
            short = len(bucket) < spec.n_per_class
            if short:
                log.warning(
                    "class %d has %d examples in env %s; sampling %d with replacement",
                    c, len(bucket), spec.env, spec.n_per_class,
                )
            parts.append(rng.choice(bucket, size=spec.n_per_class, replace=short))
        idx = np.concatenate(parts)
    else:
        total = spec.n_per_class * ds.n_classes
        cover = [int(rng.choice(_class_bucket(ds, spec.env, c))) for c in range(ds.n_classes)]
        pool = ds.by_env[spec.env] if spec.env is not None else np.arange(len(ds))
        # pool is sorted and unique, so this is np.setdiff1d(pool, cover)
        keep = np.ones(len(ds), dtype=bool)
        keep[cover] = False
        remaining = pool[keep[pool]]
        fill_n = total - len(cover)
        if fill_n <= len(remaining):
            fill = rng.choice(remaining, size=fill_n, replace=False)
        else:
            log.warning("support pool smaller than requested size %d; filling with replacement", total)
            fill = rng.choice(pool, size=fill_n, replace=True)
        idx = np.concatenate([np.array(cover, dtype=np.int64), fill])

    return idx.astype(np.int64, copy=False)


def sample_env_pair(
    ds: Dataset, n_per_class: int, query_labels, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of two balanced supports conditioned on two distinct
    environments.

    The environment pair is uniform over unordered pairs; the two supports
    are drawn independently (datapoints may repeat across the pair).
    """
    if ds.n_envs < 2:
        raise ConfigError(f"need >= 2 environments, dataset has {ds.n_envs}")
    envs = rng.choice(np.array(ds.env_ids), size=2, replace=False)
    return tuple(sample_support(ds, SupportSpec(env=int(env), n_per_class=n_per_class), query_labels, rng)
                 for env in envs)


def sample_query_batch(ds: Dataset, n_q: int, rng: Rng) -> np.ndarray:
    """Row indices (int64) of a uniform draw without replacement; one
    support is later sampled per mini-batch, not per query."""
    if n_q < 1:
        raise ConfigError(f"n_q must be >= 1, got {n_q}")
    if n_q > len(ds):
        raise ConfigError(f"n_q={n_q} exceeds dataset size {len(ds)}")
    return rng.choice(len(ds), size=n_q, replace=False).astype(np.int64, copy=False)


def sample_balanced_query_batch(ds: Dataset, n_q: int, rng: Rng) -> np.ndarray:
    """Row indices (int64) of a class-and-environment balanced query draw
    (the balanced-ERM batch).

    Cycles (env, class) cells with class varying fastest, drawing one
    example per visit without replacement inside a cell, so per-batch class
    counts are equal whenever n_classes divides n_q.
    """
    if n_q < 1:
        raise ConfigError(f"n_q must be >= 1, got {n_q}")
    cells = []
    for env in ds.env_ids:
        for c in range(ds.n_classes):
            bucket = ds.by_env_class[(env, c)]
            if len(bucket) == 0:
                log.warning("skipping empty (env=%s, class=%d) cell in balanced query draw", env, c)
                continue
            cells.append(rng.permutation(bucket))
    # the k-th pick visits cell k % len(cells) for the (k // len(cells))-th time
    n = len(cells)
    return np.array([cells[k % n][(k // n) % len(cells[k % n])] for k in range(n_q)], dtype=np.int64)
