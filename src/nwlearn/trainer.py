"""Training loops.

A training variant is nothing more than a choice of support set: one
environment or every one, class-balanced or not. ``VARIANTS`` holds one
row per variant with just those two choices; the step's loss, its query
draw and the support that model selection scores on an
out-of-distribution validation set all follow from them. The implicit
objective (``nw_implicit``) is read as: a query batch drawn from every
training environment is scored against one environment's class-balanced
support, the environments taken in a shuffled order per epoch.

A training step draws its query batch and its row's supports (two for
``"pair"``, else one) as row indices of the dataset; ``nw_loss`` gathers
those rows for one forward pass and votes, or ERM scores its linear head.
The step ends with one optimizer update.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, DomainError, TrainingDiverged
from .featnet import DEFAULT_FEATURE_DIM, DEFAULT_HIDDEN_DIMS, FeatureNet, linear_head
from .infer import FeatureCache, InferenceMode, build_cache, predict
from .metrics import compute_metric
from .nwhead import cross_entropy, nw_predict, onehot
from .optim import OPTIMIZERS
from .rng import Rng
from .support import (
    SupportSpec,
    sample_balanced_query_batch,
    sample_env_pair,
    sample_query_batch,
    sample_support,
)
from .tensor import Tape, Tensor, add, backward, mul, scale, softmax_rows, sub, sum_all, take_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Variant:
    """One row of ``VARIANTS``.

    ``support``: ``"env"`` (one training environment), ``"pair"`` (two
    distinct ones, plus lambda_ times their prediction gap), ``"all"``
    (every environment) or None (the parametric head instead of a vote).
    ``balanced`` class-balances what the row draws: the support of an NW
    row, the query batch (over (environment, class) cells) of a
    parametric one. An NW row is selected and tested on ``full`` when
    balanced and otherwise on the unweighted vote over every training
    row; a parametric row on its head.
    """

    support: str | None
    balanced: bool = True

    def selection_mode(self, cache: FeatureCache) -> InferenceMode:
        return InferenceMode("full") if self.balanced else InferenceMode("knn", len(cache))

    def loss(self, net: FeatureNet, head: FeatureNet | None, ds: Dataset, query_batch,
             n_c: int, lambda_: float, rng: Rng, env: int | None) -> tuple[Tensor, Tensor | None]:
        """(loss, penalty or None) of one step on the query rows
        ``query_batch`` (indices into ``ds``); ``env`` is the environment of
        an ``"env"`` support."""
        labels = ds.y[query_batch]
        if self.support is None:
            probs = softmax_rows(head.extract(net.extract(ds.X[query_batch])))
            return cross_entropy(probs, onehot(labels, ds.n_classes)), None
        if self.support == "pair":
            supports = sample_env_pair(ds, n_c, labels, rng)
        else:
            spec = SupportSpec(balanced=self.balanced, env=env if self.support == "env" else None, n_per_class=n_c)
            supports = (sample_support(ds, spec, labels, rng),)
        return nw_loss(net, ds, query_batch, supports, lambda_)


VARIANTS: dict[str, Variant] = {
    "nw_implicit": Variant(support="env"),
    "nw_explicit": Variant(support="pair"),
    "nw_balanced": Variant(support="all"),
    "nw_unbalanced": Variant(support="all", balanced=False),
    "erm": Variant(support=None, balanced=False),
    "erm_balanced": Variant(support=None),
}


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

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {tuple(VARIANTS)}")
        if VARIANTS[self.variant].support == "pair" and self.lambda_ <= 0:
            raise ConfigError(f"lambda_ must be positive for {self.variant}, got {self.lambda_}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_q < 1 or self.n_c < 1:
            raise ConfigError(f"n_q and n_c must be >= 1, got {self.n_q}, {self.n_c}")
        if self.max_epochs < 0 or self.eval_every < 0:
            raise ConfigError(f"max_epochs and eval_every must be >= 0, got {self.max_epochs}, {self.eval_every}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; choose from {tuple(OPTIMIZERS)}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if min(self.hidden_dims, default=1) < 1 or self.feature_dim < 1:
            raise ConfigError(f"hidden_dims and feature_dim must be >= 1, got {self.hidden_dims}, {self.feature_dim}")


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
    head: FeatureNet  # a linear_head over the net's features

    def predict_probs(self, x) -> np.ndarray:
        return softmax_rows(self.head.extract(self.net.extract(x))).data

    def parameters(self):
        return self.net.parameters() + self.head.parameters()


def nw_loss(net: FeatureNet, ds: Dataset, query_rows, supports, lambda_: float) -> tuple[Tensor, Tensor | None]:
    """(loss, penalty or None) of one NW step on the query rows and one or
    two supports, all row indices into ``ds``: one feature-net forward over
    the gathered rows, one ``nw_predict`` vote per support, and the
    cross-entropy of the vote on the first. Two supports add ``lambda_``
    times the penalty, the mean over queries of the squared L2 gap between
    the two votes (zero iff they coincide)."""
    feats, stop = net.extract(ds.X[np.concatenate([query_rows, *supports])]), len(query_rows)
    q_feats, preds = take_rows(feats, 0, stop), []
    for rows in supports:
        start, stop = stop, stop + len(rows)
        preds.append(nw_predict(q_feats, take_rows(feats, start, stop), onehot(ds.y[rows], ds.n_classes)))
    q_onehot = onehot(ds.y[query_rows], ds.n_classes)
    if len(preds) == 1:
        return cross_entropy(preds[0], q_onehot), None
    diff = sub(*preds)
    penalty = scale(sum_all(mul(diff, diff)), 1.0 / len(query_rows))
    return add(cross_entropy(preds[0], q_onehot), scale(penalty, lambda_)), penalty


def _evaluate(row: Variant, net: FeatureNet, head: FeatureNet | None,
              ds_train: Dataset, ds_val: Dataset, metric: str) -> float:
    if head is not None:
        probs = softmax_rows(head.extract(net.extract(ds_val.X))).data
    else:
        cache = build_cache(net, ds_train)
        probs = predict(row.selection_mode(cache), cache, net.extract(ds_val.X).data)
    return compute_metric(probs, ds_val.y, ds_val.e, metric)


def train(ds_train: Dataset, ds_val_ood: Dataset, cfg: TrainConfig, metric: str = "accuracy"):
    """Run the configured variant; returns (model, TrainReport).

    The returned model carries the parameters of the checkpoint that
    maximized ``metric`` on the OOD validation set. Each check scores the
    variant through one ``predict`` call on its row's selection support,
    or through the parametric head. A check runs after every
    ``eval_every``-th step and after each epoch's last step, once when the
    two coincide; the epoch's ``val_metric`` is its last check.
    """
    overlap = set(ds_train.env_ids) & set(ds_val_ood.env_ids)
    if overlap:
        raise ConfigError(f"validation environments {sorted(overlap)} overlap the training set")

    row = VARIANTS[cfg.variant]
    root = Rng(cfg.seed)
    r_init, r_query, r_support, r_env = root.split(4)
    net = FeatureNet([ds_train.input_dim, *cfg.hidden_dims, cfg.feature_dim], r_init)
    head = linear_head(cfg.feature_dim, ds_train.n_classes) if row.support is None else None
    model = net if head is None else ErmModel(net, head)
    params = model.parameters()
    opt = OPTIMIZERS[cfg.optimizer](params, cfg.lr, cfg.weight_decay)

    draw = sample_balanced_query_batch if head is not None and row.balanced else sample_query_batch
    steps_per_epoch = max(1, len(ds_train) // cfg.n_q)
    report = TrainReport()
    best_snapshot = None
    global_step = 0

    def consider(epoch: int, value: float):
        nonlocal best_snapshot
        if report.best_val_metric is None or value > report.best_val_metric:
            report.best_val_metric = value
            report.selected_epoch = epoch
            report.selected_step = global_step
            best_snapshot = opt.flat.copy()

    for epoch in range(cfg.max_epochs):
        env_cycle = r_env.permutation(np.array(ds_train.env_ids))
        losses, penalties = [], []
        for step in range(steps_per_epoch):
            batch = draw(ds_train, cfg.n_q, r_query)
            tape = Tape()
            tape.watch(*params)
            try:
                loss, penalty = row.loss(net, head, ds_train, batch, cfg.n_c, cfg.lambda_, r_support,
                                         int(env_cycle[step % len(env_cycle)]))
                grads = backward(tape, loss)
                loss_val = loss.item()
            except DomainError as exc:
                raise TrainingDiverged(
                    f"non-finite loss at step {global_step} (epoch {epoch}): {exc}"
                ) from exc
            opt.step(grads)
            losses.append(loss_val)
            penalties.append(0.0 if penalty is None else penalty.item())
            global_step += 1
            if step == steps_per_epoch - 1 or (cfg.eval_every and global_step % cfg.eval_every == 0):
                val_value = _evaluate(row, net, head, ds_train, ds_val_ood, metric)
                consider(epoch, val_value)
        report.epochs.append(EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            penalty=float(np.mean(penalties)),
            val_metric=val_value,
        ))
        log.info("epoch %d: loss %.4f val %.4f", epoch, report.epochs[-1].train_loss, val_value)

    if best_snapshot is not None:
        opt.flat[:] = best_snapshot
    return model, report
