"""Synthetic data from a structural causal model.

The generating graph: the environment influences class prevalence; the
class drives an environment-independent content latent; class and
environment jointly drive a style latent; the observation is an injective
linear mix of (content, style). Held-out environments exercise
out-of-distribution generalization, and the retained latents let tests
score content-only and style-only oracle classifiers with the package's
logistic solver, ``featnet._fit_logistic``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractError
from .featnet import _fit_logistic, logistic_head
from .rng import Rng


@dataclass
class ScmConfig:
    env_prior: np.ndarray            # (n_envs,)
    label_prior_per_env: np.ndarray  # (n_envs, n_classes)
    content_means: np.ndarray        # (n_classes, d_c)
    style_means: np.ndarray          # (n_classes, n_envs, d_s)
    noise_std: float
    mix_matrix: np.ndarray           # (d_c + d_s, d_x), full row rank

    def __post_init__(self):
        self.env_prior = np.asarray(self.env_prior, dtype=np.float64)
        self.label_prior_per_env = np.asarray(self.label_prior_per_env, dtype=np.float64)
        self.content_means = np.asarray(self.content_means, dtype=np.float64)
        self.style_means = np.asarray(self.style_means, dtype=np.float64)
        self.mix_matrix = np.asarray(self.mix_matrix, dtype=np.float64)
        for name, p in (("env_prior", self.env_prior), ("label_prior_per_env", self.label_prior_per_env)):
            if (p < 0).any() or not np.allclose(p.sum(axis=-1), 1.0, atol=1e-9):
                raise ConfigError(f"{name} must be a valid simplex")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        d_latent = self.d_content + self.d_style
        if self.mix_matrix.shape[0] != d_latent or self.mix_matrix.shape[1] < d_latent:
            raise ConfigError(
                f"mix_matrix must be ({d_latent}, >= {d_latent}), got {self.mix_matrix.shape}"
            )
        if np.linalg.matrix_rank(self.mix_matrix) != d_latent:
            raise ConfigError("mix_matrix must have full rank (injective mechanism)")
        if self.style_means.shape[:2] != (self.n_classes, self.n_envs):
            raise ConfigError("style_means must be (n_classes, n_envs, d_style)")
        if self.label_prior_per_env.shape != (self.n_envs, self.n_classes):
            raise ConfigError("label_prior_per_env must be (n_envs, n_classes)")

    @property
    def n_envs(self) -> int:
        return len(self.env_prior)

    @property
    def n_classes(self) -> int:
        return self.content_means.shape[0]

    @property
    def d_content(self) -> int:
        return self.content_means.shape[1]

    @property
    def d_style(self) -> int:
        return self.style_means.shape[2]


def random_mix_matrix(d_latent: int, d_x: int, rng: Rng) -> np.ndarray:
    """Orthonormal-row mix: rank is d_latent by construction."""
    if d_x < d_latent:
        raise ConfigError(f"d_x={d_x} must be >= d_latent={d_latent}")
    raw = rng.normal(size=(d_x, d_latent))
    q, _ = np.linalg.qr(raw)
    return q.T.copy()


def sample_dataset(cfg: ScmConfig, n: int, envs, rng: Rng) -> Dataset:
    """Draw n examples restricted to ``envs``: environment first, then the
    class from the environment's prior, then Gaussian latents, then the
    linear mix. The latents ride along as columns for diagnostics."""
    envs = [int(e) for e in envs]
    if not envs or any(e < 0 or e >= cfg.n_envs for e in envs):
        raise ConfigError(f"envs must be a non-empty subset of 0..{cfg.n_envs - 1}")
    sub_prior = cfg.env_prior[envs]
    if (sub_prior <= 0).any():
        dead = [e for e in envs if cfg.env_prior[e] <= 0]
        raise ConfigError(f"environments {dead} have zero probability")
    sub_prior = sub_prior / sub_prior.sum()

    e = np.asarray(rng.choice(np.array(envs), size=n, p=sub_prior), dtype=np.int64)
    cdf = cfg.label_prior_per_env.cumsum(axis=1)
    u = rng.random(n)
    y = np.empty(n, dtype=np.int64)
    for env in envs:
        members = e == env
        y[members] = np.searchsorted(cdf[env], u[members], side="right")
    y = np.minimum(y, cfg.n_classes - 1)  # guard the u ~ 1.0 edge

    z_c = cfg.content_means[y] + cfg.noise_std * rng.standard_normal((n, cfg.d_content))
    z_s = cfg.style_means[y, e] + cfg.noise_std * rng.standard_normal((n, cfg.d_style))
    x = np.hstack([z_c, z_s]) @ cfg.mix_matrix

    return Dataset.from_arrays(x, y, e, n_classes=cfg.n_classes, latents=(z_c, z_s))


# -- fixed benchmark recipes ---------------------------------------------

_TRAIN_ENVS = (0, 1, 2)
_VAL_ENV = 3
_TEST_ENV = 4
_D_CONTENT = 4
_D_STYLE = 4
_D_X = 16
_NOISE_STD = 0.5
_CONTENT_GAP = 0.95   # content class separation (per side, along a unit direction)
_STYLE_GAP = 0.75     # style class separation (per side) along style axis 0, unit strength
_STYLE_STRENGTH = (2.0, 1.0, 0.0)  # per training environment, in units of _STYLE_GAP
_OFFSET_SCALE = 2.0   # magnitude of the class-symmetric environment signatures


def _benchmark_splits(flip_ood: bool, rng: Rng, label_priors: np.ndarray, n_train: int, n_val: int,
                      n_test: int) -> tuple[Dataset, Dataset, Dataset]:
    """The recipe's config and its train, val and test splits."""
    content_dir = np.array([0.5, 0.5, 0.5, 0.5])
    content_means = np.stack([-_CONTENT_GAP * content_dir, _CONTENT_GAP * content_dir])

    # class-linked style lives on axis 0 with a strength that differs per
    # training environment (reversed or randomized in the held-out ones):
    # a spurious association whose strength is tied to the environment, as
    # in Colored MNIST, so only an environment-conditioned learner can tell
    # it from the invariant content. Axes 1-3 carry a strong class-symmetric
    # signature that identifies the environment, which combined with the
    # skewed label priors is the shortcut a pooled learner absorbs
    style_means = np.zeros((2, 5, _D_STYLE))
    style_means[:, :, 1:] = rng.normal(0.0, _OFFSET_SCALE, size=(5, _D_STYLE - 1))
    sign = np.array([[-1.0], [1.0]])  # class 0, class 1
    style_means[:, _TRAIN_ENVS, 0] = sign * np.array(_STYLE_STRENGTH) * _STYLE_GAP
    if flip_ood:
        style_means[:, (_VAL_ENV, _TEST_ENV), 0] = -sign * _STYLE_GAP
    else:
        # association removed up to a small random per-class jitter, drawn per environment
        style_means[:, (_VAL_ENV, _TEST_ENV), 0] = rng.normal(0.0, 0.1 * _STYLE_GAP, size=(2, 2)).T

    cfg = ScmConfig(
        env_prior=np.full(5, 0.2),
        label_prior_per_env=label_priors,
        content_means=content_means,
        style_means=style_means,
        noise_std=_NOISE_STD,
        mix_matrix=random_mix_matrix(_D_CONTENT + _D_STYLE, _D_X, rng),
    )
    train = sample_dataset(cfg, n_train, _TRAIN_ENVS, rng)
    val = sample_dataset(cfg, n_val, [_VAL_ENV], rng)
    test = sample_dataset(cfg, n_test, [_TEST_ENV], rng)
    return train, val, test


def spurious_benchmark(flip_ood: bool, rng: Rng, n_train: int = 3000, n_val: int = 600,
                       n_test: int = 1200) -> tuple[Dataset, Dataset, Dataset]:
    """Three training environments whose style-label association has a
    different strength in each (strong, moderate, absent), environment-
    identifying style signatures, and strongly skewed label priors; one
    held-out validation environment and one test environment where the
    association is randomized (or reversed when ``flip_ood``) and the class
    prior is balanced."""
    label_priors = np.array([
        [0.90, 0.10],
        [0.50, 0.50],
        [0.10, 0.90],
        [0.50, 0.50],
        [0.50, 0.50],
    ])
    return _benchmark_splits(flip_ood, rng, label_priors, n_train, n_val, n_test)


def imbalanced_benchmark(rng: Rng, majority_share: float = 0.85, n_train: int = 3000,
                         n_val: int = 600, n_test: int = 1200) -> tuple[Dataset, Dataset, Dataset]:
    """Label-skew analogue: every environment shares the same strong class
    imbalance, the training environments carry the same environment-
    dependent style-label association as ``spurious_benchmark``, and the
    held-out environments randomize that association so the sweep isolates
    label shift."""
    if not 0.0 < majority_share < 1.0:
        raise ConfigError(f"majority_share must be in (0, 1), got {majority_share}")
    prior = np.array([majority_share, 1.0 - majority_share])
    return _benchmark_splits(False, rng, np.tile(prior, (5, 1)), n_train, n_val, n_test)


def prevalence_filter(ds: Dataset, class_id: int, target_prevalence: float, rng: Rng) -> Dataset:
    """Remove examples of ``class_id`` uniformly at random until its share
    matches the target within one example. Only downward moves are
    possible: raising the share would mean deleting other classes."""
    if not 0.0 <= target_prevalence <= 1.0:
        raise ConfigError(f"target_prevalence must be in [0, 1], got {target_prevalence}")
    counts = ds.class_counts()
    if class_id < 0 or class_id >= ds.n_classes:
        raise ConfigError(f"class_id {class_id} out of range")
    own = int(counts[class_id])
    others = len(ds) - own
    current = own / len(ds)
    if target_prevalence > current + 1e-12:
        raise ConfigError(
            f"target prevalence {target_prevalence} exceeds current {current:.4f}; "
            "cannot raise a share by removing its own class"
        )
    if others == 0:
        raise ConfigError("cannot rebalance a single-class dataset")
    keep = int(round(target_prevalence * others / (1.0 - target_prevalence)))
    keep = min(keep, own)
    bucket = ds.by_class[class_id]
    kept_members = rng.choice(bucket, size=keep, replace=False) if keep else np.array([], dtype=np.int64)
    other_members = np.where(ds.y != class_id)[0]
    idx = np.sort(np.concatenate([np.asarray(kept_members, dtype=np.int64), other_members]))
    return ds.subset(idx)


# -- diagnostics over retained latents -------------------------------------


def _latents(ds: Dataset, which: str) -> np.ndarray:
    if which not in ("content", "style"):
        raise ConfigError(f"which must be 'content' or 'style', got {which!r}")
    if ds.latents is None:
        raise ContractError("dataset examples carry no latents (not SCM-generated?)")
    return ds.latents[0 if which == "content" else 1]


def latent_oracle_accuracy(fit_ds: Dataset, eval_ds: Dataset, which: str) -> float:
    """Accuracy of a linear classifier on the true latents, fitted on
    ``fit_ds``: the maximum-likelihood one-vs-rest logistic fit
    (``featnet.logistic_head`` with a 1e-8 ridge that only keeps the
    solver's Hessian invertible), predicting the class of the largest score.

    On pooled training environments the latent posterior is a prior-weighted
    mixture and not linear; the fit is the best linear classifier of it,
    which a nearest-class-mean rule is not once a class's latents spread
    over several environment signatures.
    """
    head = logistic_head(_latents(fit_ds, which), fit_ds.y, fit_ds.n_classes, reg=1e-8)
    return float((head.extract(_latents(eval_ds, which)).data.argmax(axis=1) == eval_ds.y).mean())


def sufficiency_invariance_gap(ds: Dataset, rng: Rng, n_grid: int = 200,
                               which: str = "content") -> float:
    """Empirical check that the class posterior given a latent is shared
    across environments.

    Fits one logistic model of y on the latent per environment, each on
    every row of that environment with class-balancing weights (equalizing
    class priors is the intervention that removes the environment's
    influence on prevalence), then reports the max pairwise gap of
    predicted probabilities over a shared probe grid drawn with ``rng``.
    Small for the content latent; large for style, whose posterior
    genuinely varies by environment.
    """
    if ds.n_classes != 2:
        raise ContractError("the invariance diagnostic is defined for 2 classes")
    z = _latents(ds, which)
    grid = z[rng.choice(len(z), size=min(n_grid, len(z)), replace=False)]
    preds = []
    for members in ds.by_env.values():
        y = ds.y[members]
        counts = np.bincount(y, minlength=2)
        if (counts == 0).any():
            continue
        w, b = _fit_logistic(z[members], y.astype(np.float64), weights=1.0 / counts[y])
        preds.append(1.0 / (1.0 + np.exp(-(grid @ w + b))))
    # the largest pairwise |p_i - p_j| is max - min, as rounding a difference is monotone
    return float(np.ptp(preds, axis=0).max()) if preds else 0.0


def conditional_mi(ds: Dataset, which: str) -> float:
    """Plug-in Gaussian-mixture estimate of I(E; Z | Y) in nats.

    Per class, models Z | E as an isotropic Gaussian at the per-(class,
    env) sample mean with pooled variance, then averages the log-ratio of
    the conditional density to the env-mixture density. Near zero when the
    latent ignores the environment; bounded away from zero otherwise.
    """
    z = _latents(ds, which)
    cells = [z[members] for members in ds.by_env_class.values() if len(members) >= 2]
    pooled_var = sum(((zm - zm.mean(axis=0)) ** 2).sum() for zm in cells)
    n_groups = sum(len(zm) for zm in cells)
    var = max(pooled_var / max(n_groups * z.shape[1], 1), 1e-12)

    total = 0.0
    for c in range(ds.n_classes):
        cls_members = ds.by_class[c]
        if len(cls_members) == 0:
            continue
        envs = [env for env in ds.env_ids if len(ds.by_env_class[env, c])]
        means = np.stack([z[ds.by_env_class[env, c]].mean(axis=0) for env in envs])
        weights = np.array([len(ds.by_env_class[env, c]) for env in envs], dtype=np.float64)
        weights /= weights.sum()
        zc = z[cls_members]
        # squared distances to each env mean: (n, n_envs)
        d2 = ((zc[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        log_cond = -d2 / (2 * var)
        own = np.searchsorted(envs, ds.e[cls_members])  # envs is sorted
        log_own = log_cond[np.arange(len(zc)), own]
        log_mix = np.log((weights[None, :] * np.exp(log_cond - log_cond.max(axis=1, keepdims=True))).sum(axis=1)) + log_cond.max(axis=1)
        total += (log_own - log_mix).sum()
    return float(total / len(ds))
