"""Command-line interface.

Subcommands: gen-data, train, eval, neighbors, sweep, summarize. Flat
``key = value`` config files feed every run; CLI flags override file
values.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import ConfigError, NwError
from .experiment import (
    PREVALENCES,
    ExperimentConfig,
    aggregate_records,
    config_from_flat_dict,
    load_experiment_data,
    parse_config_file,
    run_experiment,
    run_prevalence_sweep,
    score_modes,
)
from .infer import build_cache, dump_neighbors
from .io import load_checkpoint, save_csv

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 3


def _build_config(args) -> ExperimentConfig:
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in ("seed", "data_seed", "out_dir", "variant", "metric", "modes", "n_seeds", "max_epochs", "data", "flip_ood"):
        value = getattr(args, "out" if key == "out_dir" else key, None)
        if value is not None:
            values[key] = str(value)
    return config_from_flat_dict(values)


def _cmd_gen_data(args) -> int:
    cfg = _build_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_ds, val_ds, test_ds = load_experiment_data(cfg)
    for name, ds in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        path = out / f"{name}.csv"
        save_csv(ds, path)
        print(f"wrote {path} ({len(ds)} examples, {ds.n_classes} classes, envs {ds.env_ids})")
    return EXIT_OK


def _print_table(aggregate):
    print(f"{'mode':>24}  {'mean':>8}  {'std':>8}  seeds")
    for mode, stats in aggregate.items():
        print(f"{mode:>24}  {stats['mean']:8.4f}  {stats['std']:8.4f}  {stats['n_seeds']}")


def _report(result) -> int:
    """Print a run's table and each failed seed (on stderr); return the exit code."""
    _print_table(result.aggregate)
    for failure in result.failures:
        print(f"seed {failure['seed']} FAILED: {failure['error']}", file=sys.stderr)
    return EXIT_PARTIAL if result.failures else EXIT_OK


def _cmd_train(args) -> int:
    cfg = _build_config(args)
    result = run_experiment(cfg)
    print(f"variant {cfg.train.variant}, metric {cfg.metric}, {cfg.n_seeds} seed(s)")
    return _report(result)


def _cmd_eval(args) -> int:
    cfg = _build_config(args)
    net, probe, metadata = load_checkpoint(args.checkpoint)
    train_ds, _, test_ds = load_experiment_data(cfg)
    print(f"checkpoint metadata: {json.dumps(metadata, sort_keys=True)}")
    values = score_modes(net, train_ds, test_ds, cfg.modes, cfg.metric,
                         metadata.get("seed", cfg.train.seed), probe=probe)
    for label, value in values.items():
        print(f"{label:>12}: {cfg.metric} = {value:.4f}  (n={len(test_ds)})")
    return EXIT_OK


def _cmd_neighbors(args) -> int:
    cfg = _build_config(args)
    net, _, _ = load_checkpoint(args.checkpoint)
    train_ds, _, test_ds = load_experiment_data(cfg)
    cache = build_cache(net, train_ds)
    query_feats = net.extract(test_ds.X).data
    neighbors, histogram = dump_neighbors(cache, query_feats, args.top_k)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "neighbors.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for qi, entry in enumerate(neighbors):
            fh.write(json.dumps({
                "query": qi,
                "query_label": int(test_ds.y[qi]),
                "neighbors": [
                    {"index": i, "distance": d, "label": lab, "env": env}
                    for i, d, lab, env in entry
                ],
            }) + "\n")
    print(f"wrote {path}")
    print("environment histogram of the top-%d neighbors (averaged over %d queries):"
          % (args.top_k, len(neighbors)))
    for env, share in sorted(histogram.items()):
        print(f"  env {env}: {share:.3f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    try:
        prevalences = tuple(float(p) for p in args.prevalences.split(",")) if args.prevalences else PREVALENCES
    except ValueError:
        raise ConfigError(f"--prevalences must be comma-separated numbers, got {args.prevalences!r}") from None
    return _report(run_prevalence_sweep(cfg, prevalences=prevalences))


def _cmd_summarize(args) -> int:
    """Aggregate each records file on its own; a file in a subdirectory
    labels its rows ``{subdirectory relative to --dir}/{mode}``."""
    records, table = [], {}
    root = Path(args.dir)
    for path in sorted(root.glob("**/*.jsonl")):
        if path.name in ("metrics.jsonl", "sweep.jsonl"):
            with open(path, encoding="utf-8") as fh:
                run = [json.loads(line) for line in fh if line.strip()]
            prefix = "" if path.parent == root else f"{path.parent.relative_to(root).as_posix()}/"
            table.update((prefix + mode, stats) for mode, stats in aggregate_records(run).items())
            records += run
    if not records:
        print(f"no metrics records under {root}", file=sys.stderr)
        return EXIT_ERROR
    metric_names = sorted({r["metric_name"] for r in records})
    print(f"{len(records)} records, metrics {metric_names}")
    _print_table(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--out", help="output directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, help="base training seed")

    parser = argparse.ArgumentParser(prog="nwlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common], help="generate benchmark CSVs")
    p.add_argument("--seed", dest="data_seed", type=int,
                   help="data seed of the generated benchmark (config key data_seed)")
    p.add_argument("--data", choices=("spurious", "imbalanced"))
    p.add_argument("--flip-ood", dest="flip_ood", choices=("true", "false"))
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", parents=[seeded], help="train + evaluate across seeds")
    p.add_argument("--variant")
    p.add_argument("--metric")
    p.add_argument("--modes", help="comma-separated inference modes, e.g. full,cluster,knn:20")
    p.add_argument("--n-seeds", dest="n_seeds", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", parents=[seeded], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--modes")
    p.add_argument("--metric")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("neighbors", parents=[common], help="dump nearest neighbors + env histogram")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--top-k", dest="top_k", type=int, default=20)
    p.set_defaults(fn=_cmd_neighbors)

    p = sub.add_parser("sweep", parents=[seeded], help="class-prevalence robustness sweep")
    p.add_argument("--prevalences", help="comma-separated target prevalences")
    p.add_argument("--n-seeds", dest="n_seeds", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("summarize", help="aggregate metrics records")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=_cmd_summarize)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NwError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
