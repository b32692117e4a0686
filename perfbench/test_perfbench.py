"""Tests of the benchmark itself: span accounting, the percentile rule, the
hooks' clean-up and a toy-size run of every workload."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import nwlearn  # noqa: E402
from nwlearn import infer, trainer  # noqa: E402

import summary  # noqa: E402
import workloads  # noqa: E402
from tracer import Patches, Tracer, WarningCounter  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = workloads.Sizes(n_train=150, n_val=40, n_test=60, eval_every=5, hidden_dims=(8,), feature_dim=4)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_child_spans():
    clock = FakeClock()
    t = Tracer(clock)

    def extract():
        clock.now += 2.0

    def build_cache():
        clock.now += 1.0
        t.traced(extract, "featnet.extract")()
        clock.now += 0.5

    def validation():
        t.traced(build_cache, "infer.build_cache")()
        clock.now += 3.0
        t.traced(extract, "featnet.extract")()

    t.traced(validation, "trainer.validation")()

    assert t.span_of("featnet.extract").calls == 2
    assert t.span_of("featnet.extract").total == pytest.approx(4.0)
    assert t.span_of("featnet.extract").self_time == pytest.approx(4.0)
    assert t.span_of("infer.build_cache").total == pytest.approx(3.5)
    assert t.span_of("infer.build_cache").self_time == pytest.approx(1.5)
    assert t.span_of("trainer.validation").total == pytest.approx(8.5)
    assert t.span_of("trainer.validation").self_time == pytest.approx(3.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = Tracer(clock)

    def fails():
        clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        t.traced(fails, "layer")()
    t.traced(lambda: None, "after")()
    assert t.span_of("layer").total == pytest.approx(1.0)
    assert t.span_of("after").self_time == pytest.approx(0.0)


@pytest.mark.parametrize("n, expected", [
    (19, None),         # the median would have 9 samples beyond it
    (20, (50.0, 10)),
    (100, (90.0, 90)),
    (1000, (99.0, 990)),
    (10_000, (99.9, 9990)),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n, 0, -1)]  # n..1, unsorted on purpose
    tail = summary.tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    p, rank = expected
    assert tail == (p, float(rank), n)
    assert sum(s > tail[1] for s in samples) >= summary.MIN_BEYOND


def test_digest_ignores_timestamps_only():
    a = [{"seed": 1, "mode": "full", "value": 0.5, "timestamp": "t1"}]
    b = [{"seed": 1, "mode": "full", "value": 0.5, "timestamp": "t2"}]
    c = [{"seed": 1, "mode": "full", "value": 0.25, "timestamp": "t1"}]
    assert workloads.record_digest(a) == workloads.record_digest(b)
    assert workloads.record_digest(a) != workloads.record_digest(c)


def test_patches_reach_every_importer_and_are_undone():
    original = infer.predict
    with Patches() as patches:
        patches.wrap(infer, "predict", lambda fn: Tracer().traced(fn, "p"))
        assert trainer.predict is infer.predict is nwlearn.predict
        assert infer.predict is not original
    assert trainer.predict is original and nwlearn.predict is original


def test_warning_counter_counts_and_silences(capsys):
    log = logging.getLogger("nwlearn.support")
    with WarningCounter() as counter:
        log.warning("drawn with replacement")
        log.info("not counted")
    assert counter.counts == {"nwlearn.support": 1}
    assert capsys.readouterr().err == ""
    assert logging.getLogger("nwlearn").propagate


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_run_reports_every_metric(name, tmp_path):
    before = {attr: getattr(trainer, attr) for attr in ("train", "predict", "build_cache", "backward")}
    run = workloads.run_workload(name, seed=0, seconds=0.0, trace=True, workdir=tmp_path,
                                 sizes=TOY)
    assert run.checks.failures == []
    assert run.checks.attempted > 0
    assert run.passes == 2 and run.traced_passes == 1
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.metrics) | {"peak_rss_mb"}
    assert {m["name"] for m in SPEC["per_layer"]} == set(run.layers)
    assert all(v > 0 for v in run.metrics.values())
    assert {attr: getattr(trainer, attr) for attr in before} == before
    if name == "eval_modes":
        assert run.layers["hnsw.search.calls"] == TOY.n_test
        assert run.layers["trainer.validation.calls"] == 0
    else:
        assert run.layers["trainer.validation.calls"] > 0
        assert run.layers["hnsw.build.s"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_passes_every_problem(name, tmp_path):
    run = workloads.run_workload(name, seed=0, seconds=0.0, trace=False, workdir=tmp_path, sizes=TOY)
    problems = workloads.WORKLOADS[name].problems
    assert run.checks.failures == []
    assert run.passes == problems
    assert len(run.problem_accuracy) == problems
    assert run.metrics["ood_accuracy"] == pytest.approx(sum(run.problem_accuracy) / problems)


def test_problem_seeds_differ_within_and_across_runs():
    seeds = {workloads.problem_seed(0, p) for p in range(6)}
    assert len(seeds) == 6
    assert seeds.isdisjoint(workloads.problem_seed(1, p) for p in range(6))


def test_toy_sampler_fallbacks_are_counted(tmp_path):
    # 150 rows leave fewer than n_c=8 minority examples in a skewed environment
    run = workloads.run_workload("train_nw", seed=0, seconds=0.0, trace=True, workdir=tmp_path,
                                 sizes=TOY)
    assert run.layers["support.fallback_draws"] > 0
    assert 0 < run.layers["support.fallback_ratio"] <= 1


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_erm", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120,
                         env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
