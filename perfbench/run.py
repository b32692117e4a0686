"""Benchmark command for nwlearn.

    python3 perfbench/run.py --workload train_nw --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the last line of standard output is
one JSON object holding every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it holds every per-layer metric instead. The lines before it
record the environment, the determinism digest, the checks and a readable
table of the figures.

The metrics are defined in ``README.md`` beside this file. Failed
operations over attempted ones (trainings, mode predictions and checks)
are the result's ``failed`` and ``attempted``; their ratio is printed as
``failed_frac``.
"""

import os
import sys

# One BLAS thread; these must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

EXIT_NO_PROGRAM = 2


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path):
    """The checked-out commit read from ``.git``; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy_version: str) -> dict:
    return {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": numpy_version,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import numpy as np
        import nwlearn
        import summary
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if SRC not in Path(nwlearn.__file__).resolve().parents:
        print(f"perfbench: nwlearn was imported from {nwlearn.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        run = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir))
    figures = dict(run.metrics, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    units = {"wall_s": "s", "train_steps_per_s": "1/s", "eval_predictions_per_s": "1/s", "reference_s": "s"}
    failed = len(run.checks.failures)
    attempted = run.checks.attempted

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{run.passes} passes ({run.traced_passes} traced)")
    print(json.dumps({"environment": environment(np.__version__), "workload": args.workload,
                      "seed": args.seed, "digest": run.digest, "warnings": run.warnings}, sort_keys=True))
    for failure in run.checks.failures:
        print(f"FAILED: {failure}")
    print(f"  {'failed_frac':<36} {failed / attempted:.6g} fraction ({failed} of {attempted} operations)")
    print(f"  {'wall_s per pass':<36} {summary.describe(run.pass_walls)}")
    print(f"  {'ood_accuracy per problem':<36} {' '.join(f'{a:.6g}' for a in run.problem_accuracy)}")
    for name, value in run.raw.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<36} {figures[m['name']]:.6g} {m['unit']}")
    for line in run.span_lines:
        print(f"  span {line}")
    for m in spec["per_layer"] if args.trace else ():
        print(f"  {m['name']:<36} {run.layers[m['name']]:.6g} {m['unit']}")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = run.layers if args.trace else figures
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
