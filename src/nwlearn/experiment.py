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
import typing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ConfigError, ParseError
from .infer import InferenceMode, build_cache, predict, train_probe
from .io import load_csv, read_utf8, save_checkpoint
from .metrics import METRICS, compute_metric
from .rng import Rng
from .scmgen import imbalanced_benchmark, prevalence_filter, spurious_benchmark
from .trainer import VARIANTS, TrainConfig, train

log = logging.getLogger(__name__)

DATA_SOURCES = ("spurious", "imbalanced", "csv")
PREVALENCES = (0.15, 0.3, 0.5, 0.7, 0.85)  # the sweep's test-set prevalences of class 0


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
        if min(self.n_seeds, self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError(f"n_seeds, n_train, n_val and n_test must be >= 1, got "
                              f"{self.n_seeds}, {self.n_train}, {self.n_val}, {self.n_test}")
        if self.data_seed < 0:
            raise ConfigError(f"data_seed must be >= 0, got {self.data_seed}")
        if not self.modes:
            raise ConfigError("at least one inference mode is required")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.data == "csv" and not (self.csv_train and self.csv_val and self.csv_test):
            raise ConfigError("csv data source needs csv_train, csv_val and csv_test paths")
        if len(set(self.modes)) < len(self.modes):
            raise ConfigError(f"mode labels must be distinct, got {self.modes}")
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


def _metric_record(seed: int, mode: str, metric: str, value: float, n: int) -> dict:
    return {
        "seed": seed,
        "mode": mode,
        "metric_name": metric,
        "value": value,
        "n_examples": n,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def score_modes(net, ds_train: Dataset, ds_test: Dataset, modes, metric: str, seed: int,
                probe=None) -> dict[str, float]:
    """``{label: metric}`` of ``net``'s NW vote over ``ds_train`` on
    ``ds_test`` under every mode label. Label i draws from child i of
    ``Rng(seed).split(len(modes))``; ``probe`` mode uses ``probe``, or else
    a head from ``train_probe``."""
    cache = build_cache(net, ds_train)
    query_feats = net.extract(ds_test.X).data
    values: dict[str, float] = {}
    for label, rng in zip(modes, Rng(seed).split(len(modes))):
        mode = parse_mode(label)
        if mode.kind == "probe" and probe is None:
            probe = train_probe(cache)
        probs = predict(mode, cache, query_feats, rng=rng, probe=probe)
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


def _run_seeds(cfg: ExperimentConfig, run_seed, records_name: str, summary_name: str,
               unused_keys=()) -> ExperimentResult:
    """Call ``run_seed(seed)`` for each of the n_seeds training seeds and
    write the records it returns to ``records_name`` (JSON lines) and
    their aggregate to ``summary_name``, whose config leaves out
    ``unused_keys``. A seed that raises is recorded as a failure and
    contributes no records; the remaining seeds still run."""
    records: list[dict] = []
    failures: list[dict] = []
    for seed in range(cfg.train.seed, cfg.train.seed + cfg.n_seeds):
        try:
            records += run_seed(seed)
        except Exception as exc:  # noqa: BLE001 - seed isolation is the contract
            log.error("seed %d failed: %s", seed, exc)
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}",
                             "traceback": traceback.format_exc()})

    out = Path(cfg.out_dir)
    with open(out / records_name, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    aggregate = aggregate_records(records)
    summary = {
        "config": {k: v for k, v in config_to_flat_dict(cfg).items() if k not in unused_keys},
        "aggregate": aggregate,
        "failures": [{k: v for k, v in f.items() if k != "traceback"} for f in failures],
    }
    with open(out / summary_name, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return ExperimentResult(records=records, aggregate=aggregate, failures=failures)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train n_seeds models, evaluate every mode on the OOD test set, and
    persist per-seed metrics, checkpoints and an aggregate summary.

    A failing seed is recorded and the remaining seeds still run; the
    result's ``ok`` flag (and the CLI exit code) signals partial failure.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds_train, ds_val, ds_test = load_experiment_data(cfg)
    parametric = VARIANTS[cfg.train.variant].support is None

    def run_seed(seed: int) -> list[dict]:
        seed_dir = out / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        model, report = train(ds_train, ds_val, dataclasses.replace(cfg.train, seed=seed), metric=cfg.metric)
        save_checkpoint(
            seed_dir / "checkpoint.nwck",
            model.net if parametric else model,
            probe=model.head if parametric else None,
            metadata={
                "seed": seed,
                "variant": cfg.train.variant,
                "selected_epoch": report.selected_epoch,
                "best_val_metric": report.best_val_metric,
            },
        )
        with open(seed_dir / "curves.jsonl", "w", encoding="utf-8") as fh:
            for ep in report.epochs:
                fh.write(json.dumps(dataclasses.asdict(ep)) + "\n")
        if parametric:
            values = {"parametric": compute_metric(model.predict_probs(ds_test.X), ds_test.y, ds_test.e, cfg.metric)}
        else:
            values = score_modes(model, ds_train, ds_test, cfg.modes, cfg.metric, seed)
        return [_metric_record(seed, mode, cfg.metric, value, len(ds_test)) for mode, value in values.items()]

    return _run_seeds(cfg, run_seed, "metrics.jsonl", "summary.json")


def run_prevalence_sweep(cfg: ExperimentConfig, prevalences=PREVALENCES) -> ExperimentResult:
    """Class-prevalence robustness sweep on the label-skewed benchmark.

    Trains the balanced and unbalanced NW variants per seed, then scores
    both on test sets filtered to each target prevalence of class 0.
    Each variant is tested on the support its ``trainer.VARIANTS`` row
    selects it on: ``nw_balanced`` on class-balanced ``full`` mode,
    ``nw_unbalanced`` on the unweighted vote over every training row (exact
    ``knn`` at k = |cache|). Writes ``sweep.jsonl`` and
    ``sweep_summary.json``, shaped as ``run_experiment``'s files; the
    summary's config leaves out ``variant`` and ``modes``, which the sweep
    does not read.
    """
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    ds_train, ds_val, ds_test = load_experiment_data(cfg)
    base_prevalence = ds_test.class_counts()[0] / len(ds_test)
    usable = [p for p in prevalences if p <= base_prevalence + 1e-9]
    if not usable:
        raise ConfigError(f"no prevalence in {sorted(prevalences)} is at or below the test set's base "
                          f"{base_prevalence:.3f}")
    if len(usable) < len(prevalences):
        log.warning("dropping prevalences above the base %.3f: %s",
                    base_prevalence, sorted(set(prevalences) - set(usable)))
    filter_rng = Rng(cfg.data_seed).child()
    filtered = {p: prevalence_filter(ds_test, 0, p, filter_rng) for p in usable}

    def run_seed(seed: int) -> list[dict]:
        records = []
        for variant in ("nw_balanced", "nw_unbalanced"):
            model, _ = train(ds_train, ds_val, dataclasses.replace(cfg.train, variant=variant, seed=seed),
                             metric=cfg.metric)
            cache = build_cache(model, ds_train)
            for p, ds_p in filtered.items():
                probs = predict(VARIANTS[variant].selection_mode(cache), cache, model.extract(ds_p.X).data)
                value = compute_metric(probs, ds_p.y, ds_p.e, cfg.metric)
                records.append(_metric_record(seed, f"{variant}@{p}", cfg.metric, value, len(ds_p)))
        return records

    return _run_seeds(cfg, run_seed, "sweep.jsonl", "sweep_summary.json", unused_keys=("variant", "modes"))


# -- flat key=value config files -------------------------------------------

def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _flat_keys() -> dict[str, tuple[type, str, object]]:
    """Flat key -> (config class, field name, type) for every field of
    ExperimentConfig but ``train`` and every field of TrainConfig; the
    field ``lambda_`` is the key ``lambda``."""
    return {
        ("lambda" if name == "lambda_" else name): (owner, name, hint)
        for owner in (ExperimentConfig, TrainConfig)
        for name, hint in typing.get_type_hints(owner).items()
        if name != "train"
    }


def _coerce(value: str, hint):
    """Parse ``value`` as ``hint``: ``T | None`` as ``T`` and
    ``tuple[T, ...]`` as comma-separated ``T`` values."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        return tuple(_coerce(v.strip(), args[0]) for v in value.split(",") if v.strip())
    if args:  # T | None
        return _coerce(value, args[0])
    if hint is bool:
        lowered = value.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {value!r}")
    return hint(value)


def config_from_flat_dict(values: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from flat string keys (file or CLI)."""
    keys = _flat_keys()
    kwargs: dict[type, dict] = {ExperimentConfig: {}, TrainConfig: {}}
    for key, value in values.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
        owner, name, hint = keys[key]
        kwargs[owner][name] = _coerce(str(value), hint)
    return ExperimentConfig(**kwargs[ExperimentConfig], train=TrainConfig(**kwargs[TrainConfig]))


def config_to_flat_dict(cfg: ExperimentConfig) -> dict:
    flat = {}
    for key, (owner, name, _) in _flat_keys().items():
        value = getattr(cfg if owner is ExperimentConfig else cfg.train, name)
        flat[key] = ",".join(map(str, value)) if isinstance(value, tuple) else value
    return flat


__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "aggregate_records",
    "config_from_flat_dict",
    "config_to_flat_dict",
    "load_experiment_data",
    "parse_config_file",
    "parse_mode",
    "run_experiment",
    "run_prevalence_sweep",
    "score_modes",
]
