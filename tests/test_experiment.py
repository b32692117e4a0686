import dataclasses
import json

import numpy as np
import pytest

from nwlearn.cli import main as cli_main
from nwlearn.errors import ConfigError
from nwlearn.experiment import (
    ExperimentConfig,
    aggregate_records,
    config_from_flat_dict,
    config_to_flat_dict,
    parse_config_file,
    parse_mode,
    run_experiment,
)
from nwlearn.trainer import TrainConfig


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
    # bad training values fail at configuration, not once per seed
    for bad in (dict(optimizer="rmsprop"), dict(lr=-1.0), dict(eval_every=-3),
                dict(feature_dim=0), dict(hidden_dims=(0,))):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


def test_parse_mode():
    assert parse_mode("full").kind == "full"
    assert parse_mode("knn:40").k == 40


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
    with pytest.raises(ConfigError):
        config_from_flat_dict({"warp_speed": "9"})


def test_flat_config_keys_cover_every_config_field():
    exp_fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "train"]
    train_fields = ["lambda" if f.name == "lambda_" else f.name for f in dataclasses.fields(TrainConfig)]
    assert sorted(config_to_flat_dict(ExperimentConfig())) == sorted(exp_fields + train_fields)


def test_cli_train_rejects_bad_training_values_before_any_seed(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    out = tmp_path / "run"
    cfg_file.write_text("data = spurious\noptimizer = rmsprop\nn_seeds = 2\nmax_epochs = 1\n")
    code = cli_main(["train", "--config", str(cfg_file), "--out", str(out)])
    assert code == 1
    assert not list(out.glob("seed_*"))


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
