"""The benchmark's workloads, the hooks that time them and the checks on
their outputs.

Each workload draws its ``problems`` (data and training seed) from its
seed and sets them up, then runs passes over the problems in turn until
the measuring time is used up. The OOD accuracy of one net trained for
one epoch has a standard deviation of about 0.065 over problems (0.72 on
average over 40 of them), so with a single problem the seed, not the
code, would decide ``ood_accuracy``; over several it is their mean. The
training workloads take six, as many as their passes cover in a run;
``eval_modes`` takes four, since its passes are the longest. A pass is
the workload's end-to-end unit:

- ``train_nw``: ``run_experiment`` (the ``nwlearn train`` path) once per NW
  variant on ``spurious_benchmark`` with ``eval_every=25`` and
  ``modes=full``. Mostly taped forward and backward, support sampling and
  OOD validation, which is one ``build_cache`` plus one full-mode vote per
  check.
- ``train_erm``: the same path for ``erm`` and ``erm_balanced``: a linear
  head, cheap validation, no NW vote and no ``sample_support``. It is the
  bypass workload for NW-vote and validation changes.
- ``eval_modes``: the calls ``nwlearn eval`` makes on a net trained during
  set-up: ``build_cache``, ``train_probe`` and ``predict`` for every
  inference mode over the OOD test set. Almost all of its work is in
  ``infer``, ``hnsw``, ``kmeans`` and ``nwhead``.

The package is only called through its public API, looked up at call time
so that the hooks of ``tracer.Patches`` are seen.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nwlearn
import nwlearn.kmeans
from nwlearn import experiment, featnet, hnsw, infer, io, nwhead, optim, scmgen, support, tensor, trainer

from reference import reference_block, reference_unit
from summary import describe, median
from tracer import Patches, Tracer, WarningCounter


@dataclass(frozen=True)
class Sizes:
    """Input sizes and training length of a run."""

    n_train: int = 3000
    n_val: int = 600
    n_test: int = 1200
    max_epochs: int = 1
    eval_every: int = 25
    hidden_dims: tuple[int, ...] = featnet.DEFAULT_HIDDEN_DIMS
    feature_dim: int = featnet.DEFAULT_FEATURE_DIM


FULL = Sizes()

RECALL_K = 20
RECALL_GATE = 0.95  # the criterion-6 gate
SIMPLEX_TOL = 1e-9
REFERENCE_TOL = 1e-9
MODE_NAMES = ("random", "full", "ensemble", "cluster", "knn", "knn_all", "hnsw", "probe")


def mode_name(mode, cache) -> str:
    """``knn`` with k = |cache| is the criterion-9 and sweep path; it gets a
    name of its own."""
    if mode.kind == "knn" and mode.k == len(cache):
        return "knn_all"
    return mode.kind


# -- hooks ---------------------------------------------------------------------


@dataclass
class Training:
    seconds: float
    steps: int
    val_rows: int  # validation rows scored over all checks
    report: object


class Capture:
    """Hooks kept on in every run, traced or not. They time ``train()``,
    keep its report, keep ``predict()`` outputs for checking after the pass
    and keep the last HNSW index built. Inside the measured calls they add
    a clock read or an append, nothing more."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.trainings: list[Training] = []
        self.predictions: list[tuple[str, np.ndarray, int, int]] = []
        self.index = None

    def install(self, patches: Patches):
        patches.wrap(trainer, "train", self._train)
        patches.wrap(infer, "predict", self._predict)
        patches.wrap(hnsw.HnswIndex, "__init__", self._index_init)

    def _train(self, fn):
        @functools.wraps(fn)
        def wrapper(ds_train, ds_val, cfg, *args, **kwargs):
            start = time.perf_counter()
            model, report = fn(ds_train, ds_val, cfg, *args, **kwargs)
            seconds = time.perf_counter() - start
            steps = cfg.max_epochs * max(1, len(ds_train) // cfg.n_q)
            checks = cfg.max_epochs + (steps // cfg.eval_every if cfg.eval_every else 0)
            self.trainings.append(Training(seconds, steps, checks * len(ds_val), report))
            return model, report

        return wrapper

    def _predict(self, fn):
        @functools.wraps(fn)
        def wrapper(mode, cache, query_feats, *args, **kwargs):
            probs = fn(mode, cache, query_feats, *args, **kwargs)
            self.predictions.append((mode_name(mode, cache), probs,
                                     len(np.atleast_2d(query_feats)), cache.n_classes))
            return probs

        return wrapper

    def _index_init(self, fn):
        @functools.wraps(fn)
        def wrapper(index, *args, **kwargs):
            fn(index, *args, **kwargs)
            self.index = index

        return wrapper


def install_tracing(patches: Patches, t: Tracer):
    """Spans and counters at every layer boundary the per-layer metrics need."""

    def span(owner, attr, name, after=None):
        patches.wrap(owner, attr, lambda fn: t.traced(fn, name, after))

    span(featnet.FeatureNet, "extract", "featnet.extract",
         lambda result, args, kwargs: t.count("featnet.extract.rows", result.shape[0]))

    def backward(fn):
        traced = t.traced(fn, "tensor.backward")

        @functools.wraps(fn)
        def wrapper(tape, loss):
            # the tape's node list is only readable before the sweep clears it
            t.count("tensor.tape_nodes", len(tape._nodes))
            return traced(tape, loss)

        return wrapper

    patches.wrap(tensor, "backward", backward)
    span(nwhead, "nw_predict", "nwhead.nw_predict")
    span(nwhead, "cross_entropy", "nwhead.cross_entropy")
    span(support, "sample_support", "support.sample_support")
    span(support, "sample_query_batch", "support.sample_query_batch")
    span(support, "sample_balanced_query_batch", "support.sample_balanced_query_batch")
    span(optim.Adam, "step", "optim.step")
    span(optim.Sgd, "step", "optim.step")
    span(infer, "build_cache", "infer.build_cache")
    span(infer, "predict", lambda mode, cache, *a, **k: f"infer.predict.{mode_name(mode, cache)}")
    span(infer, "train_probe", "infer.train_probe")
    span(nwlearn.kmeans, "kmeans", "kmeans",
         lambda result, args, kwargs: t.count("kmeans.iterations", len(result[2])))
    span(hnsw.HnswIndex, "__init__", "hnsw.build")
    span(hnsw.HnswIndex, "search", "hnsw.search")
    span(io, "save_checkpoint", "io.save_checkpoint",
         lambda result, args, kwargs: t.count("io.save_checkpoint.bytes", os.path.getsize(args[0])))
    span(scmgen, "spurious_benchmark", "scmgen.generate")
    span(trainer, "train", "trainer.train")
    # validation is the build_cache, predict and compute_metric calls made
    # through nwlearn.trainer; one compute_metric call per check
    for attr in ("build_cache", "predict"):
        patches.set(trainer, attr, t.traced(getattr(trainer, attr), "trainer.validation"))
    patches.set(trainer, "compute_metric", t.traced(
        trainer.compute_metric, "trainer.validation",
        lambda result, args, kwargs: t.count("trainer.validation.checks")))


def layer_metrics(t: Tracer, warnings: Counter) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    s = t.span_of
    train_s = s("trainer.train").total
    sampler_calls = s("support.sample_support").calls + s("support.sample_balanced_query_batch").calls
    backward_calls = s("tensor.backward").calls
    m = {
        "trainer.validation.s": s("trainer.validation").total,
        "trainer.validation.calls": t.counts["trainer.validation.checks"],
        "trainer.validation.share": s("trainer.validation").total / train_s if train_s else 0.0,
        "infer.build_cache.self_s": s("infer.build_cache").self_time,
    }
    for name in MODE_NAMES:
        m[f"infer.predict.{name}.s"] = s(f"infer.predict.{name}").total
    m.update({
        "infer.train_probe.s": s("infer.train_probe").total,
        "infer.coverage_warnings": warnings["nwlearn.infer"],
        "featnet.extract.calls": s("featnet.extract").calls,
        "featnet.extract.rows": t.counts["featnet.extract.rows"],
        "featnet.extract.self_s": s("featnet.extract").self_time,
        "tensor.backward.self_s": s("tensor.backward").self_time,
        "tensor.tape_nodes_per_step": t.counts["tensor.tape_nodes"] / backward_calls if backward_calls else 0.0,
        "nwhead.nw_predict.self_s": s("nwhead.nw_predict").self_time,
        "nwhead.cross_entropy.self_s": s("nwhead.cross_entropy").self_time,
        "support.sample_support.calls": s("support.sample_support").calls,
        "support.sample_support.self_s": s("support.sample_support").self_time,
        "support.sample_query_batch.self_s": s("support.sample_query_batch").self_time,
        "support.fallback_draws": warnings["nwlearn.support"],
        "support.fallback_ratio": warnings["nwlearn.support"] / sampler_calls if sampler_calls else 0.0,
        "optim.step.calls": s("optim.step").calls,
        "optim.step.self_s": s("optim.step").self_time,
        "hnsw.build.s": s("hnsw.build").total,
        "hnsw.search.calls": s("hnsw.search").calls,
        "hnsw.search.s": s("hnsw.search").total,
        "kmeans.calls": s("kmeans").calls,
        "kmeans.iterations": t.counts["kmeans.iterations"],
        "kmeans.self_s": s("kmeans").self_time,
        "io.save_checkpoint.s": s("io.save_checkpoint").total,
        "io.save_checkpoint.bytes": t.counts["io.save_checkpoint.bytes"],
    })
    return m


# -- checks --------------------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and the ones that failed, by description."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_simplex(checks: Checks, label: str, probs, n: int, n_classes: int):
    probs = np.asarray(probs)
    ok = (probs.shape == (n, n_classes) and bool(np.isfinite(probs).all())
          and bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= SIMPLEX_TOL)))
    checks.check(ok, f"predict[{label}] is not a finite ({n}, {n_classes}) simplex")


def record_digest(records) -> str:
    """sha256 over the metrics records, timestamps removed (criterion 10)."""
    h = hashlib.sha256()
    for rec in records:
        rec = {k: v for k, v in rec.items() if k != "timestamp"}
        h.update(json.dumps(rec, sort_keys=True).encode("utf-8") + b"\n")
    return h.hexdigest()


def _sqdist(q, feats):
    return np.maximum((q * q).sum(axis=1)[:, None] + (feats * feats).sum(axis=1)[None, :]
                      - 2.0 * (q @ feats.T), 0.0)


def reference_vote(q, feats, labels, n_classes: int, balanced: bool) -> np.ndarray:
    """NW vote over every cached row, written independently of the package:
    softmax of minus the distance, each row of class c weighted by
    max_count / count_c when ``balanced``."""
    logits = -np.sqrt(_sqdist(q, feats))
    if balanced:
        counts = np.bincount(labels, minlength=n_classes)
        logits = logits + np.log(counts.max() / counts[labels])[None, :]
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return w @ np.eye(n_classes)[labels]


def hnsw_recall(index, q, feats, k: int = RECALL_K) -> float:
    """Mean share of the exact k nearest rows that the index returns."""
    exact = np.argsort(_sqdist(q, feats), axis=1, kind="stable")[:, :k]
    hits = sum(len(set(index.search(row, k)[0].tolist()) & set(ex.tolist()))
               for row, ex in zip(q, exact))
    return hits / (k * len(q))


# -- workloads -----------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    train_s: float  # time inside the pass's training calls
    steps: int  # optimizer steps taken by those calls
    predictions: int  # OOD rows scored
    records: list[dict]


def _train_config(sizes: Sizes, variant: str, seed: int) -> nwlearn.TrainConfig:
    return nwlearn.TrainConfig(variant=variant, max_epochs=sizes.max_epochs, eval_every=sizes.eval_every,
                               hidden_dims=sizes.hidden_dims, feature_dim=sizes.feature_dim, seed=seed)


def _generate(seed: int, sizes: Sizes):
    return nwlearn.spurious_benchmark(True, nwlearn.Rng(seed), sizes.n_train, sizes.n_val, sizes.n_test)


def problem_seed(seed: int, problem: int) -> int:
    """Seed of the data and the training of one problem of a run."""
    return int(np.random.SeedSequence((seed, problem)).generate_state(1)[0])


class TrainWorkload:
    """One ``run_experiment`` per variant, reading the generated data from
    CSV as ``nwlearn train --data csv`` does."""

    setup_reps = 12
    problems = 6

    def __init__(self, variants):
        self.variants = tuple(variants)

    def setup(self, seed: int, workdir: Path, sizes: Sizes) -> dict:
        data_dir = workdir / f"data-{seed}"
        data_dir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for split, ds in zip(("train", "val", "test"), _generate(seed, sizes)):
            paths[split] = str(data_dir / f"{split}.csv")
            nwlearn.save_csv(ds, paths[split])
        return {"seed": seed, "paths": paths}

    def run_pass(self, state: dict, capture: Capture, workdir: Path, sizes: Sizes, checks: Checks) -> PassResult:
        paths = state["paths"]
        out_dirs = {v: workdir / "runs" / v for v in self.variants}
        start = time.perf_counter()
        results = {}
        for variant in self.variants:
            cfg = experiment.ExperimentConfig(
                data="csv", csv_train=paths["train"], csv_val=paths["val"], csv_test=paths["test"],
                train=_train_config(sizes, variant, state["seed"]), modes=("full",),
                metric="accuracy", n_seeds=1, out_dir=str(out_dirs[variant]))
            results[variant] = nwlearn.run_experiment(cfg)
        wall = time.perf_counter() - start

        records = []
        for variant, result in results.items():
            checks.check(result.ok and bool(result.records), f"{variant} training failed: {result.failures}")
            lines = (out_dirs[variant] / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
            records.extend({"variant": variant, **json.loads(line)} for line in lines)
        for tr in capture.trainings:
            checks.check(tr.report.selected_step is not None, "a train() report names no selected step")
        for label, probs, n, n_classes in capture.predictions:
            check_simplex(checks, label, probs, n, n_classes)
        test_rows = sum(r["n_examples"] for r in records)
        return PassResult(
            wall_s=wall,
            train_s=sum(tr.seconds for tr in capture.trainings),
            steps=sum(tr.steps for tr in capture.trainings),
            predictions=sum(tr.val_rows for tr in capture.trainings) + test_rows,
            records=records,
        )

    def final_checks(self, state, checks, layers):
        """Training passes are checked pass by pass. No HNSW index is built,
        so its recall reads 0."""
        layers["hnsw.recall_at_20"] = 0.0


class EvalWorkload:
    """Every inference mode over a net trained during set-up."""

    setup_reps = 4
    problems = 4

    def setup(self, seed: int, workdir: Path, sizes: Sizes) -> dict:
        ds_train, ds_val, ds_test = _generate(seed, sizes)
        net, _ = nwlearn.train(ds_train, ds_val, _train_config(sizes, "nw_implicit", seed))
        return {"seed": seed, "train": ds_train, "test": ds_test, "net": net}

    def run_pass(self, state: dict, capture: Capture, workdir: Path, sizes: Sizes, checks: Checks) -> PassResult:
        seed, net, ds_train, ds_test = state["seed"], state["net"], state["train"], state["test"]
        start = time.perf_counter()
        cache = nwlearn.build_cache(net, ds_train)
        q = net.extract(ds_test.X).data
        probe = nwlearn.train_probe(cache)
        labels = ("random", "full", "ensemble", "cluster", "knn:20", f"knn:{len(cache)}", "hnsw:20", "probe")
        records = []
        for label in labels:
            probs = self._predict(label, cache, q, seed, probe)
            value = nwlearn.compute_metric(probs, ds_test.y, ds_test.e, "accuracy")
            records.append({"seed": seed, "mode": label, "metric_name": "accuracy",
                            "value": value, "n_examples": len(ds_test)})
        wall = time.perf_counter() - start

        for label, probs, n, n_classes in capture.predictions:
            check_simplex(checks, label, probs, n, n_classes)
        state.update(cache=cache, query=q, probe=probe, index=capture.index,
                     predictions=[(label, name, probs) for label, (name, probs, _, _)
                                  in zip(labels, capture.predictions)])
        return PassResult(wall_s=wall, train_s=0.0, steps=0, predictions=len(labels) * len(q),
                          records=records)

    @staticmethod
    def _predict(label: str, cache, q, seed: int, probe):
        mode = experiment.parse_mode(label)
        return nwlearn.predict(mode, cache, q, rng=nwlearn.Rng(seed),
                               probe=probe if mode.kind == "probe" else None)

    def final_checks(self, state, checks, layers):
        """Reference votes, HNSW recall and a repeat of every mode but
        ``hnsw`` (whose index alone takes most of a pass) on the last pass's
        problem, once per run and outside the measured passes. A run
        without a second pass of one problem still checks determinism."""
        cache, q = state["cache"], state["query"]
        outputs = {name: probs for _, name, probs in state["predictions"]}
        for label, name, probs in state["predictions"]:
            if name != "hnsw":
                again = self._predict(label, cache, q, state["seed"], state["probe"])
                checks.check(np.array_equal(again, probs), f"predict[{label}] differs when repeated")
        for label, balanced in (("full", True), ("knn_all", False)):
            ref = reference_vote(q, cache.features, cache.labels, cache.n_classes, balanced)
            gap = float(np.abs(outputs[label] - ref).max())
            checks.check(gap <= REFERENCE_TOL, f"predict[{label}] differs from the reference vote by {gap:.3g}")
        recall = hnsw_recall(state["index"], q, cache.features)
        checks.check(recall >= RECALL_GATE, f"hnsw recall@{RECALL_K} {recall:.4f} < {RECALL_GATE}")
        layers["hnsw.recall_at_20"] = recall


WORKLOADS = {
    "train_nw": TrainWorkload(("nw_implicit", "nw_explicit", "nw_balanced", "nw_unbalanced")),
    "train_erm": TrainWorkload(("erm", "erm_balanced")),
    "eval_modes": EvalWorkload(),
}


# -- a run ---------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict[str, float]  # end-to-end figures, times in reference units
    raw: dict[str, float]  # the same figures in seconds, and the reference's time
    layers: dict[str, float]  # per-layer figures, empty unless traced
    checks: Checks
    digest: str
    passes: int
    traced_passes: int
    pass_walls: list[float]
    warnings: dict[str, int]
    span_lines: list[str]  # per-span timings of the last traced pass
    problem_accuracy: list[float]  # OOD accuracy of each problem's first untraced pass


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 sizes: Sizes = FULL) -> RunResult:
    """Set up ``setup_reps`` times, then run passes until ``seconds`` have
    been measured. A block of the reference computation runs before the
    first set-up and after every set-up and pass; each one is timed against
    the median of the two blocks around it. A traced run alternates
    untraced and traced passes, at least one of each, so the difference of
    their wall times is the tracing overhead.

    Set-up ``rep`` sets up problem ``rep % problems``, and the passes take
    the problems in turn, a traced run's untraced and traced passes in
    pairs on one problem. An untraced run makes at least one pass of every
    problem. The OOD accuracy is the mean over the problems passed."""
    wl = WORKLOADS[name]
    tracer = Tracer()
    capture = Capture()
    checks = Checks()
    reference_unit()  # the first unit of a process runs cold
    blocks = [reference_block()]

    def reference_around(unit: int) -> float:
        return median(blocks[unit] + blocks[unit + 1])

    with WarningCounter() as warnings, Patches() as base:
        capture.install(base)
        setup_times, setup_rates, generate_times = [], [], []
        states = {}
        for rep in range(wl.setup_reps):
            problem = rep % wl.problems
            capture.reset()
            with Patches() as patches:
                if trace:
                    tracer.reset()
                    install_tracing(patches, tracer)
                start = time.perf_counter()
                states[problem] = wl.setup(problem_seed(seed, problem), workdir, sizes)
                setup_times.append(time.perf_counter() - start)
            blocks.append(reference_block())
            generate_times.append(tracer.span_of("scmgen.generate").total)
            setup_rates += [(tr.steps / tr.seconds, len(blocks) - 2) for tr in capture.trainings]

        passes, layer_runs, span_lines = [], [], []  # passes: (result, traced, unit)
        first_records = {}  # problem -> records of its first pass
        measured = 0.0
        while len(passes) < (2 if trace else wl.problems) or measured < seconds:
            traced_pass = trace and len(passes) % 2 == 1
            problem = (len(passes) // 2 if trace else len(passes)) % wl.problems
            state = states[problem]
            capture.reset()
            before = Counter(warnings.counts)
            with Patches() as patches:
                if traced_pass:
                    tracer.reset()
                    install_tracing(patches, tracer)
                result = wl.run_pass(state, capture, workdir, sizes, checks)
            blocks.append(reference_block())
            measured += result.wall_s
            passes.append((result, traced_pass, len(blocks) - 2))
            if traced_pass:
                layer_runs.append(layer_metrics(tracer, warnings.counts - before))
                span_lines = [f"{span:<36} calls {st.calls}, self {st.self_time:.4g} s, per call "
                              f"{describe(st.durations)}" for span, st in sorted(tracer.stats.items())]
            if problem in first_records:
                checks.check(record_digest(result.records) == record_digest(first_records[problem]),
                             f"pass {len(passes)} records differ from the first pass of problem {problem}")
            else:
                first_records[problem] = result.records

        layers = {}
        wl.final_checks(state, checks, layers)
        plain = [(r, unit) for r, is_traced, unit in passes if not is_traced]
        if trace:
            layers = {key: median(run[key] for run in layer_runs) for key in layer_runs[0]} | layers
            layers["scmgen.generate.s"] = median(generate_times)
            layers["trace.overhead_s"] = (median(r.wall_s for r, is_traced, _ in passes if is_traced)
                                          - median(r.wall_s for r, _ in plain))
        warning_totals = dict(warnings.counts)

    problem_accuracy = [float(np.mean([rec["value"] for rec in first_records[p]]))
                        for p in sorted(first_records)]
    # eval_modes calls train() only in set-up, for its frozen nets
    rates = ([(r.steps / r.train_s, unit) for r, unit in plain] if plain[0][0].steps else setup_rates)
    raw = {
        "wall_s": median(r.wall_s for r, _ in plain),
        "train_steps_per_s": median(rate for rate, _ in rates),
        "eval_predictions_per_s": median(r.predictions / r.wall_s for r, _ in plain),
        "reference_s": median(t for block in blocks for t in block),
    }
    metrics = {
        "setup_s": median(setup_times),
        "wall_ref": median(r.wall_s / reference_around(unit) for r, unit in plain),
        "train_steps_per_ref": median(rate * reference_around(unit) for rate, unit in rates),
        "eval_predictions_per_ref": median(r.predictions / r.wall_s * reference_around(unit)
                                           for r, unit in plain),
        "ood_accuracy": float(np.mean(problem_accuracy)),
    }
    return RunResult(metrics=metrics, raw=raw, layers=layers, checks=checks,
                     digest=record_digest(first_records[0]), passes=len(passes),
                     traced_passes=len(layer_runs), pass_walls=[r.wall_s for r, _ in plain],
                     warnings=warning_totals, span_lines=span_lines, problem_accuracy=problem_accuracy)
