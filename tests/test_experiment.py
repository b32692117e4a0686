import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import nwlearn.experiment
from nwlearn.cli import main as cli_main
from nwlearn.errors import ConfigError, ParseError
from nwlearn.experiment import (
    ExperimentConfig,
    aggregate_records,
    config_from_flat_dict,
    config_to_flat_dict,
    parse_config_file,
    parse_mode,
    run_experiment,
    run_prevalence_sweep,
)
from nwlearn.trainer import TrainConfig

TINY_CFG = ("n_train = 240\nn_val = 60\nn_test = 120\nmax_epochs = 1\neval_every = 0\n"
            "hidden_dims = 8\nfeature_dim = 4\n")


def tiny_experiment(tmp_path, **overrides):
    train_cfg = TrainConfig(variant=overrides.pop("variant", "nw_implicit"),
                            max_epochs=1, eval_every=0, hidden_dims=(8,),
                            feature_dim=4, seed=overrides.pop("seed", 0))
    defaults = dict(
        data="spurious",
        n_train=240,
        n_val=60,
        n_test=120,
        train=train_cfg,
        modes=("full",),
        n_seeds=1,
        out_dir=str(tmp_path / "run"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, n_seeds=0)
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, modes=())
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, metric="auroc")
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, data="csv")
    # mode labels fail at configuration, not after every seed has trained
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, modes=("knn:x",))
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, modes=("bogus",))
    # mode label i draws rng child i, so a label may appear only once
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, modes=("random", "random"))
    # bad training values fail at configuration, not once per seed
    for bad in (dict(lr=-1.0), dict(eval_every=-3), dict(feature_dim=0), dict(hidden_dims=(0,)), dict(seed=-1)):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
    # seeds and split sizes that numpy would reject fail at configuration
    for bad in (dict(data_seed=-1), dict(n_train=-5), dict(n_val=0), dict(n_test=0)):
        with pytest.raises(ConfigError):
            tiny_experiment(tmp_path, **bad)


def test_parse_mode():
    assert parse_mode("full").kind == "full"
    assert parse_mode("knn:40").k == 40


@pytest.mark.parametrize("label", ["full:3", "ensemble:2", "probe:7"])
def test_k_on_a_mode_without_k_is_rejected(tmp_path, label):
    with pytest.raises(ConfigError, match="takes no k"):
        parse_mode(label)
    # otherwise "full" and "full:3" would pass the distinct-label check
    # and record one vote under two labels
    with pytest.raises(ConfigError, match="takes no k"):
        tiny_experiment(tmp_path, modes=(label.partition(":")[0], label))


def test_single_seed_experiment_writes_artifacts(tmp_path):
    cfg = tiny_experiment(tmp_path)
    result = run_experiment(cfg)
    assert result.ok
    assert len(result.records) == 1
    assert result.aggregate["full"]["std"] == 0.0
    out = tmp_path / "run"
    assert (out / "metrics.jsonl").exists()
    assert (out / "summary.json").exists()
    assert (out / "seed_0" / "checkpoint.nwck").exists()
    assert (out / "seed_0" / "curves.jsonl").exists()


def test_each_curves_line_is_one_epoch_with_its_last_checks_value(tmp_path, monkeypatch):
    # 30 steps per epoch and eval_every=20: a periodic check falls inside
    # epochs 0 and 2 and on the end of epoch 1; each call returns a
    # distinct value
    import nwlearn.trainer as trainer_module

    steps, checks = [0], []
    draw, evaluate = trainer_module.sample_query_batch, trainer_module._evaluate

    def counting_draw(*args):
        steps[0] += 1
        return draw(*args)

    def recording_evaluate(*args):
        checks.append((steps[0], evaluate(*args) + len(checks)))
        return checks[-1][1]

    monkeypatch.setattr(trainer_module, "sample_query_batch", counting_draw)
    monkeypatch.setattr(trainer_module, "_evaluate", recording_evaluate)
    cfg = tiny_experiment(tmp_path, train=TrainConfig(max_epochs=3, eval_every=20, hidden_dims=(8,), feature_dim=4))
    run_experiment(cfg)
    curves = [json.loads(line) for line in (tmp_path / "run" / "seed_0" / "curves.jsonl").read_text().splitlines()]
    per_epoch = 240 // cfg.train.n_q
    assert [c["epoch"] for c in curves] == [0, 1, 2]
    assert [step for step, _ in checks] == [20, 30, 40, 60, 80, 90]
    for c in curves:
        last_step, last_value = [check for check in checks if check[0] <= (c["epoch"] + 1) * per_epoch][-1]
        assert last_step == (c["epoch"] + 1) * per_epoch
        assert c["val_metric"] == last_value


def test_metrics_file_byte_identical_across_reruns_excluding_timestamps(tmp_path):
    cfg_a = tiny_experiment(tmp_path / "a")
    cfg_b = tiny_experiment(tmp_path / "b")
    run_experiment(cfg_a)
    run_experiment(cfg_b)

    def stripped(path):
        lines = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("timestamp")
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines)

    a = stripped(tmp_path / "a" / "run" / "metrics.jsonl")
    b = stripped(tmp_path / "b" / "run" / "metrics.jsonl")
    assert a == b


def test_aggregate_recomputable_from_records():
    records = [
        {"mode": "full", "value": 0.8},
        {"mode": "full", "value": 0.6},
        {"mode": "cluster", "value": 0.5},
    ]
    agg = aggregate_records(records)
    assert agg["full"]["mean"] == pytest.approx(0.7)
    assert agg["full"]["std"] == pytest.approx(np.std([0.8, 0.6]))
    assert agg["cluster"]["n_seeds"] == 1


def test_erm_experiment_records_parametric_mode(tmp_path):
    cfg = tiny_experiment(tmp_path, variant="erm")
    result = run_experiment(cfg)
    assert result.ok
    assert result.records[0]["mode"] == "parametric"


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "data = spurious\n"
        "variant = nw_explicit\n"
        "lambda = 0.1\n"
        "modes = full, cluster, knn:10\n"
        "n_seeds = 2\n"
        "max_epochs = 3\n"
        "hidden_dims = 32,16\n"
    )
    values = parse_config_file(path)
    cfg = config_from_flat_dict(values)
    assert cfg.train.variant == "nw_explicit"
    assert cfg.train.lambda_ == 0.1
    assert cfg.modes == ("full", "cluster", "knn:10")
    assert cfg.train.hidden_dims == (32, 16)
    flat = config_to_flat_dict(cfg)
    assert flat["lambda"] == 0.1
    assert flat["modes"] == "full,cluster,knn:10"


def test_unknown_config_key_rejected():
    # optimizer, weight_decay and majority_share are constants, not keys
    for key, value in (("warp_speed", "9"), ("optimizer", "adam"), ("weight_decay", "0"),
                       ("majority_share", "0.85")):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_flat_dict({key: value})


def test_every_ini_block_of_the_readme_is_a_valid_config(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("```", 1)[0] for block in readme.split("```ini\n")[1:]]
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        path = tmp_path / f"block_{i}.cfg"
        path.write_text(block, encoding="utf-8")
        config_from_flat_dict(parse_config_file(path))


def test_flat_config_keys_cover_every_config_field():
    exp_fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "train"]
    train_fields = ["lambda" if f.name == "lambda_" else f.name for f in dataclasses.fields(TrainConfig)]
    assert sorted(config_to_flat_dict(ExperimentConfig())) == sorted(exp_fields + train_fields)


def test_cli_train_rejects_bad_training_values_before_any_seed(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    out = tmp_path / "run"
    cfg_file.write_text("data = spurious\nlr = -0.1\nn_seeds = 2\nmax_epochs = 1\n")
    code = cli_main(["train", "--config", str(cfg_file), "--out", str(out)])
    assert code == 1
    assert not list(out.glob("seed_*"))


@pytest.mark.parametrize("argv", [
    ["sweep", "--prevalences", "0.5,x"],
    ["eval", "--checkpoint", "{missing}"],
    ["neighbors", "--checkpoint", "{missing}"],
    ["train", "--config", "{missing}"],
    ["train", "--seed", "-1"],
    ["gen-data", "--seed", "-1"],
    ["train", "--config", "{cfg}", "data_seed = -1"],
    ["train", "--config", "{cfg}", "n_train = -5"],
    ["train", "--config", "{cfg}", "lr = 0"],
])
def test_cli_bad_outside_input_is_one_error_line(tmp_path, capsys, argv):
    missing, cfg = str(tmp_path / "missing"), tmp_path / "bad.cfg"
    if "{cfg}" in argv:  # the last item is the config file's one line
        *argv, line = argv
        cfg.write_text(line + "\n")
    code = cli_main([arg.format(missing=missing, cfg=cfg) for arg in argv] + ["--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "run").exists()


def test_a_config_that_is_not_utf8_is_a_parse_error_and_one_cli_error_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"# spurious data\ndata = sp\xffurious\n")
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        parse_config_file(cfg)
    assert exc.value.line == 2
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "run").exists()


def table_rows(text: str) -> list[tuple[str, str, str]]:
    """(mode, mean, seeds) of each row below the table header in ``text``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == ["mode"]) + 1
    return [(parts[0], parts[1], parts[3]) for parts in (line.split() for line in lines[start:])]


def summary_rows(path) -> list[tuple[str, str, str]]:
    aggregate = json.loads(path.read_text())["aggregate"]
    return [(mode, f"{s['mean']:.4f}", str(s["n_seeds"])) for mode, s in aggregate.items()]


def test_cli_gen_data_and_summarize(tmp_path, capsys):
    out = tmp_path / "data"
    code = cli_main(["gen-data", "--out", str(out), "--seed", "0"])
    assert code == 0
    assert (out / "train.csv").exists()
    assert (out / "val.csv").exists()
    assert (out / "test.csv").exists()

    from nwlearn.io import load_csv
    ds = load_csv(out / "train.csv")
    assert ds.input_dim == 16

    for command, extra, summary, n_rows in (("train", "modes = full, random\n", "summary.json", 2),
                                            ("sweep", "data = imbalanced\n", "sweep_summary.json", 10)):
        cfg_file = tmp_path / f"{command}.cfg"
        cfg_file.write_text(TINY_CFG + "n_seeds = 2\n" + extra)
        run = tmp_path / command
        assert cli_main([command, "--config", str(cfg_file), "--out", str(run)]) == 0
        capsys.readouterr()
        assert cli_main(["summarize", "--dir", str(run)]) == 0
        rows = table_rows(capsys.readouterr().out)
        assert rows == summary_rows(run / summary)
        assert len(rows) == n_rows and all(seeds == "2" for _, _, seeds in rows)
        # the sweep trains its own two variants and scores their selection modes
        config = json.loads((run / summary).read_text())["config"]
        assert {"variant", "modes"} & config.keys() == ({"variant", "modes"} if command == "train" else set())


@pytest.mark.parametrize("argv", [
    ["summarize", "--dir", "x", "--seed", "3"],
    ["summarize", "--dir", "x", "--config", "c.cfg"],
    ["neighbors", "--checkpoint", "c.nwck", "--seed", "3"],
])
def test_cli_rejects_flags_that_the_subcommand_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli_main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_gen_data_seed_is_the_data_seed(tmp_path):
    def train_csv(name, cfg_text, *argv):
        cfg_file, out = tmp_path / f"{name}.cfg", tmp_path / name
        cfg_file.write_text(TINY_CFG + cfg_text)
        assert cli_main(["gen-data", "--config", str(cfg_file), "--out", str(out), *argv]) == 0
        return (out / "train.csv").read_bytes()

    seed_3 = train_csv("seed_3", "", "--seed", "3")
    assert train_csv("seed_0", "", "--seed", "0") != seed_3
    assert train_csv("data_seed_3", "data_seed = 3\n") == seed_3


def test_cli_summarize_keeps_runs_under_one_root_apart(tmp_path, capsys):
    root = tmp_path / "runs"
    expected = []
    for variant in ("nw_implicit", "nw_balanced", "erm"):
        cfg_file = tmp_path / f"{variant}.cfg"
        cfg_file.write_text(TINY_CFG + f"n_seeds = 2\nvariant = {variant}\n")
        assert cli_main(["train", "--config", str(cfg_file), "--out", str(root / "grid" / variant)]) == 0
        expected += [(f"grid/{variant}/{mode}", mean, seeds)
                     for mode, mean, seeds in summary_rows(root / "grid" / variant / "summary.json")]
    capsys.readouterr()
    assert cli_main(["summarize", "--dir", str(root)]) == 0
    rows = table_rows(capsys.readouterr().out)
    assert rows == sorted(expected)
    assert [mode for mode, _, _ in rows] == ["grid/erm/parametric", "grid/nw_balanced/full", "grid/nw_implicit/full"]
    assert all(seeds == "2" for _, _, seeds in rows)


def test_cli_sweep_writes_ten_points_per_seed(tmp_path, capsys):
    cfg_file = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep"
    cfg_file.write_text(TINY_CFG + "n_seeds = 2\ndata = imbalanced\n")
    assert cli_main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
    records = [json.loads(line) for line in (out / "sweep.jsonl").read_text().splitlines()]
    for seed in (0, 1):
        modes = sorted(r["mode"] for r in records if r["seed"] == seed)
        assert modes == sorted(f"{v}@{p}" for v in ("nw_balanced", "nw_unbalanced")
                               for p in (0.15, 0.3, 0.5, 0.7, 0.85))
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert sorted(summary) == ["aggregate", "config", "failures"]
    assert summary["failures"] == []
    assert table_rows(capsys.readouterr().out) == summary_rows(out / "sweep_summary.json")


def test_failed_sweep_seed_contributes_no_records(tmp_path, monkeypatch, capsys):
    train = nwlearn.experiment.train

    def failing_train(ds_train, ds_val, cfg, **kwargs):
        if cfg.seed == 1 and cfg.variant == "nw_unbalanced":
            raise RuntimeError("injected failure")
        return train(ds_train, ds_val, cfg, **kwargs)

    monkeypatch.setattr(nwlearn.experiment, "train", failing_train)
    cfg = tiny_experiment(tmp_path, data="imbalanced", n_seeds=2)
    result = run_prevalence_sweep(cfg)
    assert {r["seed"] for r in result.records} == {0}
    assert len(result.records) == 10
    assert all(stats["n_seeds"] == 1 for stats in result.aggregate.values())
    assert [f["seed"] for f in result.failures] == [1]
    summary = json.loads((tmp_path / "run" / "sweep_summary.json").read_text())
    assert summary["failures"] == [{"seed": 1, "error": "RuntimeError: injected failure"}]

    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(TINY_CFG + "n_seeds = 2\ndata = imbalanced\n")
    capsys.readouterr()
    assert cli_main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "cli")]) == 3
    assert "seed 1 FAILED: RuntimeError: injected failure" in capsys.readouterr().err


def test_sweep_with_no_prevalence_at_or_below_the_base_trains_nothing(tmp_path, monkeypatch, capsys):
    def no_train(*args, **kwargs):
        raise AssertionError("the sweep trained")

    monkeypatch.setattr(nwlearn.experiment, "train", no_train)
    cfg = tiny_experiment(tmp_path, data="imbalanced")
    with pytest.raises(ConfigError, match="base"):
        run_prevalence_sweep(cfg, prevalences=(0.95, 0.99))
    assert not (tmp_path / "run" / "sweep.jsonl").exists()

    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(TINY_CFG + "data = imbalanced\n")
    capsys.readouterr()
    argv = ["sweep", "--config", str(cfg_file), "--prevalences", "0.95,0.99", "--out", str(tmp_path / "cli")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "cli" / "sweep.jsonl").exists()


def test_cli_eval_reproduces_each_seeds_records(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(TINY_CFG + "n_seeds = 2\nmodes = full, random\n")
    assert cli_main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    for seed in (0, 1):
        capsys.readouterr()
        ckpt = out / f"seed_{seed}" / "checkpoint.nwck"
        assert cli_main(["eval", "--config", str(cfg_file), "--checkpoint", str(ckpt)]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            label, _, rest = line.partition(": ")
            printed[label.strip()] = rest.split()[2]
        assert printed == {r["mode"]: f"{r['value']:.4f}" for r in records if r["seed"] == seed}


def test_cli_train_eval_cycle(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(
        "data = spurious\nvariant = nw_implicit\nn_train = 240\nn_val = 60\n"
        "n_test = 120\nmax_epochs = 1\neval_every = 0\nhidden_dims = 8\n"
        "feature_dim = 4\nn_seeds = 1\nmodes = full\n"
    )
    code = cli_main(["train", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    ckpt = out / "seed_0" / "checkpoint.nwck"
    assert ckpt.exists()

    code = cli_main([
        "eval", "--config", str(cfg_file), "--checkpoint", str(ckpt),
        "--modes", "full,random", "--out", str(out),
    ])
    assert code == 0

    code = cli_main(["summarize", "--dir", str(out)])
    assert code == 0


def test_cli_neighbors(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(
        "data = spurious\nvariant = nw_implicit\nn_train = 240\nn_val = 60\n"
        "n_test = 120\nmax_epochs = 1\neval_every = 0\nhidden_dims = 8\n"
        "feature_dim = 4\nn_seeds = 1\nmodes = full\n"
    )
    assert cli_main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    ckpt = out / "seed_0" / "checkpoint.nwck"
    code = cli_main([
        "neighbors", "--config", str(cfg_file), "--checkpoint", str(ckpt),
        "--top-k", "5", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "neighbors.jsonl").read_text().splitlines()
    assert len(lines) == 120
    rec = json.loads(lines[0])
    assert len(rec["neighbors"]) == 5
    dists = [n["distance"] for n in rec["neighbors"]]
    assert dists == sorted(dists)
