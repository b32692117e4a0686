"""Labeled examples and the indexed dataset container.

A Dataset holds its rows as columns, ``X`` (n, d), ``y`` and ``e``, and
optionally the generator's latents, with per-class, per-environment and
per-(environment, class) index buckets. Class ids are dense 0..C-1;
environment ids are arbitrary non-negative integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError


@dataclass
class LabeledExample:
    """One observation: input vector, class id, environment id.

    Latents are retained by the synthetic generator for diagnostics only
    and never enter model-facing code paths.
    """

    x: np.ndarray
    y: int
    e: int
    latent_zc: np.ndarray | None = field(default=None, repr=False)
    latent_zs: np.ndarray | None = field(default=None, repr=False)


class Dataset:
    def __init__(self, examples, n_classes: int | None = None):
        examples = list(examples)
        if not examples:
            raise ContractError("a Dataset needs at least one example")
        latents = None
        if all(ex.latent_zc is not None and ex.latent_zs is not None for ex in examples):
            latents = tuple(np.stack([getattr(ex, a) for ex in examples]) for a in ("latent_zc", "latent_zs"))
        self._set_columns(np.stack([np.asarray(ex.x, dtype=np.float64) for ex in examples]),
                          [int(ex.y) for ex in examples], [int(ex.e) for ex in examples], n_classes, latents)

    @classmethod
    def from_arrays(cls, X, y, e, n_classes: int | None = None, latents=None) -> "Dataset":
        """``Dataset(examples)`` from columns ``X`` (n, d), ``y``, ``e`` and
        latents ``(z_c, z_s)``; contiguous columns are kept, not copied."""
        ds = cls.__new__(cls)
        ds._set_columns(X, y, e, n_classes, latents)
        return ds

    @classmethod
    def like(cls, ds: "Dataset", X) -> "Dataset":
        """Rows ``X``, one per row of ``ds``, under ``ds``'s labels,
        environments and buckets, which are shared rather than rebuilt."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(ds):
            raise ContractError(f"rows {X.shape} do not match a dataset of {len(ds)} rows")
        out = cls.__new__(cls)
        vars(out).update(vars(ds), X=X, latents=None)
        vars(out).pop("examples", None)  # ds's rows, if built
        return out

    def _set_columns(self, X, y, e, n_classes, latents):
        self.X = np.ascontiguousarray(X, dtype=np.float64)
        self.y = np.ascontiguousarray(y, dtype=np.int64)
        self.e = np.ascontiguousarray(e, dtype=np.int64)
        if self.X.ndim != 2 or not len(self.X) or self.y.shape != (len(self.X),) or self.e.shape != self.y.shape:
            raise ContractError(f"columns X {self.X.shape}, y {self.y.shape}, e {self.e.shape} are empty or misaligned")
        if self.y.min() < 0 or self.e.min() < 0:
            raise ContractError("class and environment ids must be non-negative")
        self.n_classes = int(n_classes) if n_classes is not None else int(self.y.max()) + 1
        if self.y.max() >= self.n_classes:
            raise ContractError(f"label {self.y.max()} exceeds n_classes={self.n_classes}")
        self.latents = latents
        self.env_ids = sorted(int(v) for v in np.unique(self.e))
        self.n_envs = len(self.env_ids)

        order = np.arange(len(self.y))
        self.by_class = {c: order[self.y == c] for c in range(self.n_classes)}
        self.by_env = {env: order[self.e == env] for env in self.env_ids}
        self.by_env_class = {
            (env, c): order[(self.e == env) & (self.y == c)]
            for env in self.env_ids
            for c in range(self.n_classes)
        }

    @cached_property
    def examples(self) -> tuple[LabeledExample, ...]:
        """The rows, over read-only views of the columns; built on first use."""
        X = self.X.view()
        X.flags.writeable = False
        zc, zs = self.latents or ((None,) * len(self),) * 2
        return tuple(LabeledExample(X[i], int(self.y[i]), int(self.e[i]), zc[i], zs[i]) for i in range(len(self)))

    def __len__(self) -> int:
        return len(self.y)

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        latents = None if self.latents is None else tuple(z[idx] for z in self.latents)
        return Dataset.from_arrays(self.X[idx], self.y[idx], self.e[idx], self.n_classes, latents)
