"""Experiment runner: multi-seed training, OOD model selection, per-mode
evaluation, JSON-lines metrics, and the prevalence sweep.

Data is generated once per experiment (or loaded from CSVs); the seeds
vary the model initialization and sampling streams, mirroring repeated
training runs on a fixed dataset.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ConfigError, ParseError
from .infer import InferenceMode, build_cache, predict, train_probe
from .io import load_csv, save_checkpoint
from .metrics import METRICS, compute_metric
from .rng import Rng
from .scmgen import imbalanced_benchmark, prevalence_filter, spurious_benchmark
from .trainer import VARIANTS, TrainConfig, train

log = logging.getLogger(__name__)

DATA_SOURCES = ("spurious", "imbalanced", "csv")


@dataclass
class ExperimentConfig:
    data: str = "spurious"
    flip_ood: bool = True
    n_train: int = 3000
    n_val: int = 600
    n_test: int = 1200
    majority_share: float = 0.85  # imbalanced recipe only
    csv_train: str | None = None
    csv_val: str | None = None
    csv_test: str | None = None
    data_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    modes: tuple[str, ...] = ("full",)
    metric: str = "accuracy"
    n_seeds: int = 5
    out_dir: str = "runs/experiment"

    def __post_init__(self):
        if self.data not in DATA_SOURCES:
            raise ConfigError(f"data must be one of {DATA_SOURCES}, got {self.data!r}")
        if self.n_seeds < 1:
            raise ConfigError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if not self.modes:
            raise ConfigError("at least one inference mode is required")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.data == "csv" and not (self.csv_train and self.csv_val and self.csv_test):
            raise ConfigError("csv data source needs csv_train, csv_val and csv_test paths")
        for label in self.modes:
            parse_mode(label)


def parse_mode(label: str) -> InferenceMode:
    """Parse a mode label like ``full`` or ``knn:40`` (override of k)."""
    if ":" in label:
        kind, _, k = label.partition(":")
        try:
            return InferenceMode(kind.strip(), int(k))
        except ValueError:
            raise ConfigError(f"mode {label!r}: k must be an integer, got {k!r}") from None
    return InferenceMode(label.strip())


def load_experiment_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    if cfg.data == "spurious":
        return spurious_benchmark(cfg.flip_ood, Rng(cfg.data_seed), cfg.n_train, cfg.n_val, cfg.n_test)
    if cfg.data == "imbalanced":
        return imbalanced_benchmark(Rng(cfg.data_seed), cfg.majority_share,
                                    cfg.n_train, cfg.n_val, cfg.n_test)
    return load_csv(cfg.csv_train), load_csv(cfg.csv_val), load_csv(cfg.csv_test)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _metric_record(seed: int, mode: str, metric: str, value: float, n: int) -> dict:
    return {
        "seed": seed,
        "mode": mode,
        "metric_name": metric,
        "value": value,
        "n_examples": n,
        "timestamp": _timestamp(),
    }


def evaluate_modes(model, variant: str, ds_train: Dataset, ds_test: Dataset,
                   modes, metric: str, seed: int) -> dict[str, float]:
    """Evaluate the trained model under every requested inference mode."""
    values: dict[str, float] = {}
    if VARIANTS[variant].selection is None:
        probs = model.predict_probs(ds_test.X)
        values["parametric"] = compute_metric(probs, ds_test.y, ds_test.e, metric)
        return values
    cache = build_cache(model, ds_train)
    query_feats = model.extract(ds_test.X).data
    rngs = dict(zip([m for m in modes], Rng(seed).split(len(list(modes)))))
    for label in modes:
        mode = parse_mode(label)
        probe = train_probe(cache) if mode.kind == "probe" else None
        probs = predict(mode, cache, query_feats, rng=rngs[label], probe=probe)
        values[label] = compute_metric(probs, ds_test.y, ds_test.e, metric)
    return values


def aggregate_records(records: list[dict]) -> dict[str, dict]:
    """Per-mode mean and std (population), recomputable from the records."""
    by_mode: dict[str, list[float]] = {}
    for rec in records:
        by_mode.setdefault(rec["mode"], []).append(rec["value"])
    return {
        mode: {
            "mean": float(np.mean(vals)),
            "std": float(np.std(vals)),
            "n_seeds": len(vals),
        }
        for mode, vals in sorted(by_mode.items())
    }


@dataclass
class ExperimentResult:
    records: list[dict]
    aggregate: dict[str, dict]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train n_seeds models, evaluate every mode on the OOD test set, and
    persist per-seed metrics, checkpoints and an aggregate summary.

    A failing seed is recorded and the remaining seeds still run; the
    result's ``ok`` flag (and the CLI exit code) signals partial failure.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds_train, ds_val, ds_test = load_experiment_data(cfg)

    records: list[dict] = []
    failures: list[dict] = []
    for i in range(cfg.n_seeds):
        seed = cfg.train.seed + i
        seed_dir = out / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        try:
            train_cfg = dataclasses.replace(cfg.train, seed=seed)
            model, report = train(ds_train, ds_val, train_cfg, metric=cfg.metric)
            parametric = VARIANTS[cfg.train.variant].support is None
            net, head = (model.net, model.head) if parametric else (model, None)
            save_checkpoint(
                seed_dir / "checkpoint.nwck",
                net,
                probe=head,
                metadata={
                    "seed": seed,
                    "variant": cfg.train.variant,
                    "selected_epoch": report.selected_epoch,
                    "best_val_metric": report.best_val_metric,
                },
            )
            with open(seed_dir / "curves.jsonl", "w", encoding="utf-8") as fh:
                for ep in report.epochs:
                    fh.write(json.dumps({
                        "epoch": ep.epoch,
                        "train_loss": ep.train_loss,
                        "penalty": ep.penalty,
                        "val_metric": ep.val_metric,
                    }) + "\n")
            values = evaluate_modes(model, cfg.train.variant, ds_train, ds_test,
                                    cfg.modes, cfg.metric, seed)
            for mode, value in values.items():
                records.append(_metric_record(seed, mode, cfg.metric, value, len(ds_test)))
        except Exception as exc:  # noqa: BLE001 - seed isolation is the contract
            log.error("seed %d failed: %s", seed, exc)
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}",
                             "traceback": traceback.format_exc()})

    with open(out / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    aggregate = aggregate_records(records)
    summary = {
        "config": config_to_flat_dict(cfg),
        "aggregate": aggregate,
        "failures": [{k: v for k, v in f.items() if k != "traceback"} for f in failures],
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return ExperimentResult(records=records, aggregate=aggregate, failures=failures)


def run_prevalence_sweep(cfg: ExperimentConfig, prevalences=(0.15, 0.3, 0.5, 0.7, 0.85),
                         class_id: int = 0) -> ExperimentResult:
    """Class-prevalence robustness sweep on the label-skewed benchmark.

    Trains the balanced and unbalanced NW variants per seed, then scores
    both on test sets filtered to each target prevalence of ``class_id``.
    Each variant is tested on the support its ``trainer.VARIANTS`` row
    selects it on: ``nw_balanced`` on class-balanced ``full`` mode,
    ``nw_unbalanced`` on the unweighted vote over every training row (exact
    ``knn`` at k = |cache|).
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds_train, ds_val, ds_test = load_experiment_data(cfg)
    base_prevalence = ds_test.class_counts()[class_id] / len(ds_test)
    usable = [p for p in prevalences if p <= base_prevalence + 1e-9]
    if len(usable) < len(prevalences):
        log.warning("dropping prevalences above the base %.3f: %s",
                    base_prevalence, sorted(set(prevalences) - set(usable)))

    records: list[dict] = []
    failures: list[dict] = []
    filter_rng = Rng(cfg.data_seed).child()
    filtered = {p: prevalence_filter(ds_test, class_id, p, filter_rng) for p in usable}
    for i in range(cfg.n_seeds):
        seed = cfg.train.seed + i
        try:
            for variant in ("nw_balanced", "nw_unbalanced"):
                train_cfg = dataclasses.replace(cfg.train, variant=variant, seed=seed)
                model, _ = train(ds_train, ds_val, train_cfg, metric=cfg.metric)
                cache = build_cache(model, ds_train)
                for p, ds_p in filtered.items():
                    feats = model.extract(ds_p.X).data
                    probs = predict(VARIANTS[variant].selection_mode(cache), cache, feats)
                    value = compute_metric(probs, ds_p.y, ds_p.e, cfg.metric)
                    records.append(_metric_record(seed, f"{variant}@{p}", cfg.metric,
                                                  value, len(ds_p)))
        except Exception as exc:  # noqa: BLE001
            log.error("sweep seed %d failed: %s", seed, exc)
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}",
                             "traceback": traceback.format_exc()})

    with open(out / "sweep.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    aggregate = aggregate_records(records)
    with open(out / "sweep_summary.json", "w", encoding="utf-8") as fh:
        json.dump({"aggregate": aggregate}, fh, indent=2, sort_keys=True)
    return ExperimentResult(records=records, aggregate=aggregate, failures=failures)


# -- flat key=value config files -------------------------------------------

_EXPERIMENT_KEYS = {
    "data": str, "flip_ood": bool, "n_train": int, "n_val": int, "n_test": int,
    "majority_share": float, "csv_train": str, "csv_val": str, "csv_test": str,
    "data_seed": int, "metric": str, "n_seeds": int, "out_dir": str,
}
_TRAIN_KEYS = {
    "variant": str, "lambda": float, "n_q": int, "n_c": int, "lr": float,
    "weight_decay": float, "optimizer": str, "max_epochs": int, "seed": int,
    "eval_every": int, "feature_dim": int,
}


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(value: str, target: type):
    if target is bool:
        lowered = value.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {value!r}")
    return target(value)


def config_from_flat_dict(values: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from flat string keys (file or CLI)."""
    exp_kwargs = {}
    train_kwargs = {}
    for key, value in values.items():
        if key == "modes":
            exp_kwargs["modes"] = tuple(v.strip() for v in str(value).split(",") if v.strip())
        elif key == "hidden_dims":
            train_kwargs["hidden_dims"] = tuple(int(v) for v in str(value).split(",") if v.strip())
        elif key in _EXPERIMENT_KEYS:
            exp_kwargs[key] = _coerce(str(value), _EXPERIMENT_KEYS[key])
        elif key in _TRAIN_KEYS:
            name = "lambda_" if key == "lambda" else key
            train_kwargs[name] = _coerce(str(value), _TRAIN_KEYS[key])
        else:
            raise ConfigError(f"unknown config key {key!r}")
    exp_kwargs["train"] = TrainConfig(**train_kwargs)
    return ExperimentConfig(**exp_kwargs)


def config_to_flat_dict(cfg: ExperimentConfig) -> dict:
    flat = {}
    for key in _EXPERIMENT_KEYS:
        flat[key] = getattr(cfg, key)
    flat["modes"] = ",".join(cfg.modes)
    for key in _TRAIN_KEYS:
        name = "lambda_" if key == "lambda" else key
        flat[key] = getattr(cfg.train, name)
    flat["hidden_dims"] = ",".join(str(d) for d in cfg.train.hidden_dims)
    return flat


__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "aggregate_records",
    "config_from_flat_dict",
    "config_to_flat_dict",
    "evaluate_modes",
    "load_experiment_data",
    "parse_config_file",
    "parse_mode",
    "run_experiment",
    "run_prevalence_sweep",
]
