"""Training loops.

Variants: the per-environment objective trained one sampled environment at
a time (``nw_implicit``), its Lagrangian counterpart with a cross-
environment prediction-matching penalty (``nw_explicit``), support
balancing without environment conditioning (``nw_balanced``), neither
(``nw_unbalanced``), and the parametric baselines ``erm`` /
``erm_balanced``. Model selection maximizes a metric on an
out-of-distribution validation set.

A training step draws its query batch as row indices of the dataset (one
support draw per batch for the NW variants), then records one taped
feature-net node over the query rows and every support's rows together,
one taped ``nw_predict`` node per support (or the linear head for ERM)
and one cross-entropy node, and ends with one optimizer update.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, DomainError, TrainingDiverged
from .featnet import DEFAULT_FEATURE_DIM, DEFAULT_HIDDEN_DIMS, FeatureNet, LinearHead
from .infer import FeatureCache, InferenceMode, build_cache, predict
from .metrics import compute_metric
from .nwhead import cross_entropy, nw_predict, onehot
from .optim import make_optimizer
from .rng import Rng
from .support import (
    SupportSpec,
    sample_balanced_query_batch,
    sample_env_pair,
    sample_query_batch,
    sample_support,
)
from .tensor import Tape, Tensor, backward, mul, scale, sub, sum_all, take_rows

log = logging.getLogger(__name__)

VARIANTS = ("nw_implicit", "nw_explicit", "nw_balanced", "nw_unbalanced", "erm", "erm_balanced")
NW_VARIANTS = ("nw_implicit", "nw_explicit", "nw_balanced", "nw_unbalanced")


@dataclass
class TrainConfig:
    variant: str = "nw_implicit"
    lambda_: float = 0.01  # penalty weight, explicit variant only
    n_q: int = 8
    n_c: int = 8
    lr: float = 1e-3
    weight_decay: float = 0.0
    optimizer: str = "adam"
    max_epochs: int = 10
    seed: int = 0
    eval_every: int = 100  # steps; an evaluation also runs at each epoch end
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    feature_dim: int = DEFAULT_FEATURE_DIM
    lr_decay_gamma: float = 1.0  # optional step decay: lr *= gamma ...
    lr_decay_every: int = 0      # ... every this many epochs (0 = off)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.variant == "nw_explicit" and self.lambda_ <= 0:
            raise ConfigError(f"lambda_ must be positive for nw_explicit, got {self.lambda_}")
        if self.n_q < 1 or self.n_c < 1:
            raise ConfigError(f"n_q and n_c must be >= 1, got {self.n_q}, {self.n_c}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    penalty: float
    val_metric: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    selected_epoch: int | None = None
    selected_step: int | None = None
    best_val_metric: float | None = None


@dataclass
class ErmModel:
    net: FeatureNet
    head: LinearHead

    def predict_probs(self, x) -> np.ndarray:
        return self.head.predict_probs(self.net.extract(x)).data

    def parameters(self):
        return self.net.parameters() + self.head.parameters()


def _query_arrays(ds: Dataset, idx):
    """(inputs, labels, one-hot labels) of the query rows ``idx`` of ``ds``."""
    labels = ds.y[idx]
    return ds.X[idx], labels, onehot(labels, ds.n_classes)


def _embed(net: FeatureNet, query_x, *supports) -> tuple[Tensor, list]:
    """One forward over the query rows and every support's rows: (query
    features, each support re-bound to its features)."""
    feats = net.extract(np.concatenate([query_x] + [s.features for s in supports]))
    stop = len(query_x)
    q_feats, embedded = take_rows(feats, 0, stop), []
    for s in supports:
        start, stop = stop, stop + len(s)
        embedded.append(s.with_features(take_rows(feats, start, stop)))
    return q_feats, embedded


def nw_ce_loss(net: FeatureNet, query_x, query_onehot, support) -> Tensor:
    """Cross-entropy of the NW vote for one query batch on one support."""
    q_feats, (embedded,) = _embed(net, query_x, support)
    return cross_entropy(nw_predict(q_feats, embedded), query_onehot)


def _prediction_gap(net: FeatureNet, query_x, support_a, support_b) -> tuple[Tensor, Tensor]:
    """(predictions under support_a, mean over queries of the squared L2
    gap between the predictions under the two supports)."""
    q_feats, (emb_a, emb_b) = _embed(net, query_x, support_a, support_b)
    pa = nw_predict(q_feats, emb_a)
    pb = nw_predict(q_feats, emb_b)
    diff = sub(pa, pb)
    return pa, scale(sum_all(mul(diff, diff)), 1.0 / pa.shape[0])


def invariance_penalty(net: FeatureNet, query_x, support_a, support_b) -> Tensor:
    """Mean over queries of the squared L2 gap between the predictions
    under two environment-conditioned supports. Zero iff they coincide."""
    return _prediction_gap(net, query_x, support_a, support_b)[1]


def _support_ce(net: FeatureNet, query_batch, ds: Dataset, spec: SupportSpec, rng: Rng) -> Tensor:
    """NW cross-entropy of the query rows ``query_batch`` (indices into
    ``ds``) on a support drawn by ``spec``."""
    qx, labels, q_onehot = _query_arrays(ds, query_batch)
    support = sample_support(ds, spec, labels, rng)
    return nw_ce_loss(net, qx, q_onehot, support)


def loss_implicit(net: FeatureNet, query_batch, ds: Dataset, n_c: int, rng: Rng,
                  env: int | None = None) -> Tensor:
    """One environment's term of the per-environment objective.

    Draws the environment uniformly unless the caller supplies one (the
    train loop cycles a shuffled environment order per epoch so every
    environment contributes).
    """
    if ds.n_envs < 1:
        raise ConfigError("dataset has no environments")
    if env is None:
        env = int(rng.choice(np.array(ds.env_ids)))
    return _support_ce(net, query_batch, ds, SupportSpec(balanced=True, env=env, n_per_class=n_c), rng)


def loss_explicit(net: FeatureNet, query_batch, ds: Dataset, n_c: int, lambda_: float,
                  rng: Rng) -> tuple[Tensor, Tensor]:
    """Lagrangian objective on a sampled environment pair.

    Returns (total loss, penalty term). The cross-entropy is computed on
    the first support; at lambda_=0 this reduces exactly to the implicit
    loss on the same draw.
    """
    if ds.n_envs < 2:
        raise ConfigError(f"explicit variant needs >= 2 environments, dataset has {ds.n_envs}")
    qx, labels, q_onehot = _query_arrays(ds, query_batch)
    support_a, support_b = sample_env_pair(ds, n_c, labels, rng)
    pa, penalty = _prediction_gap(net, qx, support_a, support_b)
    return cross_entropy(pa, q_onehot) + scale(penalty, lambda_), penalty


def loss_unconditioned(net: FeatureNet, query_batch, ds: Dataset, n_c: int, rng: Rng,
                       balanced: bool = True) -> Tensor:
    """NW loss with support drawn from all environments (balanced or not)."""
    return _support_ce(net, query_batch, ds, SupportSpec(balanced=balanced, env=None, n_per_class=n_c), rng)


def loss_erm(head: LinearHead, net: FeatureNet, query_x, query_onehot) -> Tensor:
    """Cross-entropy of the parametric softmax head on extracted features."""
    return cross_entropy(head.predict_probs(net.extract(query_x)), query_onehot)


def variant_mode(variant: str, cache: FeatureCache) -> InferenceMode:
    """The inference mode an NW variant is selected and tested with: the
    vote over every training row once (exact k-NN at k = |cache|) for
    ``nw_unbalanced``, class-balanced ``full`` mode for the others."""
    return InferenceMode("knn", len(cache)) if variant == "nw_unbalanced" else InferenceMode("full")


def _evaluate(variant: str, net: FeatureNet, head: LinearHead | None,
              ds_train: Dataset, ds_val: Dataset, metric: str) -> float:
    if variant in NW_VARIANTS:
        cache = build_cache(net, ds_train)
        q = net.extract(ds_val.X).data
        probs = predict(variant_mode(variant, cache), cache, q)
    else:
        probs = head.predict_probs(net.extract(ds_val.X)).data
    return compute_metric(probs, ds_val.y, ds_val.e, metric)


def train(ds_train: Dataset, ds_val_ood: Dataset, cfg: TrainConfig, metric: str = "accuracy"):
    """Run the configured variant; returns (model, TrainReport).

    The returned model carries the parameters of the checkpoint that
    maximized ``metric`` on the OOD validation set. Each variant is scored
    through one ``predict`` call per check, on the support it is tested
    with: ``nw_unbalanced`` on the unweighted NW vote over every training
    row (``knn`` at k = |cache|), the other NW variants on class-balanced
    ``full`` mode, ERM with the parametric head.
    """
    overlap = set(ds_train.env_ids) & set(ds_val_ood.env_ids)
    if overlap:
        raise ConfigError(f"validation environments {sorted(overlap)} overlap the training set")
    if cfg.variant == "nw_explicit" and ds_train.n_envs < 2:
        raise ConfigError("nw_explicit needs >= 2 training environments")

    root = Rng(cfg.seed)
    r_init, r_query, r_support, r_env = root.split(4)
    net = FeatureNet([ds_train.input_dim, *cfg.hidden_dims, cfg.feature_dim], r_init)
    is_erm = cfg.variant in ("erm", "erm_balanced")
    head = LinearHead(cfg.feature_dim, ds_train.n_classes) if is_erm else None
    model = ErmModel(net, head) if is_erm else net
    params = model.parameters() if is_erm else net.parameters()
    opt = make_optimizer(cfg.optimizer, cfg.lr, cfg.weight_decay)

    steps_per_epoch = max(1, len(ds_train) // cfg.n_q)
    report = TrainReport()
    best_snapshot = None
    global_step = 0

    def snapshot():
        state = [net.state_arrays()]
        if head is not None:
            state.append(head.state_arrays())
        return state

    def consider(epoch: int, value: float):
        nonlocal best_snapshot
        if report.best_val_metric is None or value > report.best_val_metric:
            report.best_val_metric = value
            report.selected_epoch = epoch
            report.selected_step = global_step
            best_snapshot = snapshot()

    for epoch in range(cfg.max_epochs):
        if cfg.lr_decay_every and epoch and epoch % cfg.lr_decay_every == 0:
            opt.lr *= cfg.lr_decay_gamma
        env_cycle = r_env.permutation(np.array(ds_train.env_ids))
        losses, penalties = [], []
        for step in range(steps_per_epoch):
            if cfg.variant == "erm_balanced":
                batch = sample_balanced_query_batch(ds_train, cfg.n_q, r_query)
            else:
                batch = sample_query_batch(ds_train, cfg.n_q, r_query)
            tape = Tape()
            tape.watch(*params)
            penalty_val = 0.0
            try:
                if cfg.variant == "nw_implicit":
                    env = int(env_cycle[step % len(env_cycle)])
                    loss = loss_implicit(net, batch, ds_train, cfg.n_c, r_support, env=env)
                elif cfg.variant == "nw_explicit":
                    loss, penalty = loss_explicit(net, batch, ds_train, cfg.n_c, cfg.lambda_, r_support)
                    penalty_val = penalty.item()
                elif cfg.variant == "nw_balanced":
                    loss = loss_unconditioned(net, batch, ds_train, cfg.n_c, r_support, balanced=True)
                elif cfg.variant == "nw_unbalanced":
                    loss = loss_unconditioned(net, batch, ds_train, cfg.n_c, r_support, balanced=False)
                else:
                    qx, _, q_onehot = _query_arrays(ds_train, batch)
                    loss = loss_erm(head, net, qx, q_onehot)
                grads = backward(tape, loss)
                loss_val = loss.item()
            except DomainError as exc:
                raise TrainingDiverged(
                    f"non-finite loss at step {global_step} (epoch {epoch}): {exc}"
                ) from exc
            if not np.isfinite(loss_val):
                grad_norms = {i: float(np.linalg.norm(g.data)) for i, g in enumerate(grads.values())}
                raise TrainingDiverged(
                    f"non-finite loss {loss_val} at step {global_step}; grad norms {grad_norms}"
                )
            opt.step(params, grads)
            losses.append(loss_val)
            penalties.append(penalty_val)
            global_step += 1
            if cfg.eval_every and global_step % cfg.eval_every == 0:
                consider(epoch, _evaluate(cfg.variant, net, head, ds_train, ds_val_ood, metric))
        val_value = _evaluate(cfg.variant, net, head, ds_train, ds_val_ood, metric)
        consider(epoch, val_value)
        report.epochs.append(EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            penalty=float(np.mean(penalties)),
            val_metric=val_value,
        ))
        log.info("epoch %d: loss %.4f val %.4f", epoch, report.epochs[-1].train_loss, val_value)

    if best_snapshot is not None:
        net.load_state_arrays(*best_snapshot[0])
        if head is not None:
            head.load_state_arrays(*best_snapshot[1])
    return model, report
