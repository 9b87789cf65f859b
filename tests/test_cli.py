"""Command-line behavior: config handling, subcommands, exit codes."""

import json

import numpy as np
import pytest

from mmists.cli import build_parser, build_run_config, main, read_config_file
from mmists.data import TaskSchema, load_episodes
from mmists.harness import load_checkpoint, save_checkpoint
from mmists.model import ConfigError


SMALL_KEYS = {
    "modality": "ts",
    "alpha": "6",
    "n_features": "4",
    "d_hidden": "8",
    "d_timeembed": "4",
    "time_heads": "1",
    "heads": "1",
    "fusion_layers": "1",
    "batch_size": "16",
    "lr": "2e-3",
    "epochs": "1",
}


def write_config(tmp_path, extra=None, name="run.cfg"):
    lines = ["# small run", ""]
    lines += [f"{k} = {v}" for k, v in SMALL_KEYS.items()]
    if extra:
        lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    train, val, test = root / "train.jsonl", root / "val.jsonl", root / "test.jsonl"
    assert main(["gen", "--out", str(train), "--n-episodes", "60", "--task", "ts_only", "--seed", "51"]) == 0
    assert main(["gen", "--out", str(val), "--n-episodes", "20", "--task", "ts_only", "--seed", "52"]) == 0
    assert main(["gen", "--out", str(test), "--n-episodes", "20", "--task", "ts_only", "--seed", "53"]) == 0
    return train, val, test


# ------------------------------------------------------------------ config

def test_config_file_parsing(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# comment\n\nlr = 0.01  # trailing comment\nalpha=12\n", encoding="utf-8")
    assert read_config_file(path) == {"lr": "0.01", "alpha": "12"}


def test_config_file_rejects_bare_words(tmp_path):
    path = tmp_path / "b.cfg"
    path.write_text("lr 0.01\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="key = value"):
        read_config_file(path)


def test_flag_overrides_config_file(tmp_path):
    path = write_config(tmp_path, extra={"lr": "0.1"})
    parser = build_parser()
    args = parser.parse_args(["train", "--config", str(path), "--lr", "0.002", "--seed", "7"])
    config = build_run_config(args)
    assert config.lr == 0.002  # flag wins
    assert config.alpha == 6  # file wins over the dataclass default
    assert config.seed == 7


def test_unknown_config_key_is_config_error(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("learning_rate = 0.1\n", encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(["train", "--config", str(path), "--seed", "0"])
    with pytest.raises(ConfigError, match="unknown config key"):
        build_run_config(args)


# ------------------------------------------------------------------ gen

def test_gen_is_deterministic_and_loadable(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--n-episodes", "12", "--task", "xor_fusion", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    episodes = load_episodes(a, TaskSchema(n_features=4, n_classes=1, text_dim=16))
    assert len(episodes) == 12


# ------------------------------------------------------------------ train / eval / predict

def test_train_eval_predict_round_trip(tmp_path, dataset, capsys):
    train_path, val_path, test_path = dataset
    ckpt_path = tmp_path / "model.ckpt"
    cfg = write_config(tmp_path)
    rc = main([
        "train", "--config", str(cfg), "--seed", "3",
        "--train-path", str(train_path), "--val-path", str(val_path),
        "--checkpoint-path", str(ckpt_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "train seed=3" in out and "checkpoint=" in out
    ckpt = load_checkpoint(ckpt_path)
    assert ckpt.config.seed == 3 and ckpt.config.alpha == 6

    assert main(["eval", "--checkpoint", str(ckpt_path), "--data", str(test_path),
                 "--out", str(tmp_path / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "auroc=" in out and "f1=" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_examples"] == 20

    pred_path = tmp_path / "pred.jsonl"
    assert main(["predict", "--checkpoint", str(ckpt_path), "--data", str(test_path),
                 "--out", str(pred_path)]) == 0
    rows = [json.loads(line) for line in pred_path.read_text().splitlines()]
    assert len(rows) == 20
    assert all(len(r["scores"]) == 1 and 0.0 <= r["scores"][0] <= 1.0 for r in rows)
    test_eps = load_episodes(test_path, TaskSchema(n_features=4, n_classes=1, text_dim=16))
    assert [r["episode_id"] for r in rows] == [ep.episode_id for ep in test_eps]


def test_train_requires_seed_flag(tmp_path, dataset):
    train_path, val_path, _ = dataset
    cfg = write_config(tmp_path, extra={"seed": "3"})  # a file seed does not count
    with pytest.raises(SystemExit) as err:
        main(["train", "--config", str(cfg),
              "--train-path", str(train_path), "--val-path", str(val_path),
              "--checkpoint-path", str(tmp_path / "x.ckpt")])
    assert err.value.code == 2


def test_missing_paths_exit_config_error(tmp_path, dataset, capsys):
    train_path, _, _ = dataset
    cfg = write_config(tmp_path)
    rc = main(["train", "--config", str(cfg), "--seed", "0", "--train-path", str(train_path)])
    assert rc == 2
    assert "val_path" in capsys.readouterr().err


def test_invalid_config_value_exits_2(tmp_path, dataset):
    train_path, val_path, _ = dataset
    cfg = write_config(tmp_path, extra={"heads": "3"})  # does not divide d_hidden=8
    rc = main(["train", "--config", str(cfg), "--seed", "0",
               "--train-path", str(train_path), "--val-path", str(val_path),
               "--checkpoint-path", str(tmp_path / "x.ckpt")])
    assert rc == 2


def test_non_finite_config_value_exits_2(tmp_path, dataset):
    train_path, val_path, _ = dataset
    cfg = write_config(tmp_path, extra={"lr": "nan"})
    rc = main(["train", "--config", str(cfg), "--seed", "0",
               "--train-path", str(train_path), "--val-path", str(val_path),
               "--checkpoint-path", str(tmp_path / "x.ckpt")])
    assert rc == 2


def test_missing_data_file_exits_3(tmp_path, dataset):
    _, val_path, _ = dataset
    cfg = write_config(tmp_path)
    rc = main(["train", "--config", str(cfg), "--seed", "0",
               "--train-path", str(tmp_path / "nope.jsonl"), "--val-path", str(val_path),
               "--checkpoint-path", str(tmp_path / "x.ckpt")])
    assert rc == 3


def test_corrupt_checkpoint_exits_3(tmp_path, dataset):
    _, _, test_path = dataset
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert main(["eval", "--checkpoint", str(bad), "--data", str(test_path)]) == 3


def test_numerical_failure_exits_4(tmp_path, dataset):
    train_path, val_path, _ = dataset
    cfg = write_config(tmp_path, extra={"lr": "1e200", "epochs": "3"})
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", str(cfg), "--seed", "0",
                   "--train-path", str(train_path), "--val-path", str(val_path),
                   "--checkpoint-path", str(tmp_path / "x.ckpt")])
    assert rc == 4


def test_non_finite_score_exits_4(tmp_path, dataset):
    train_path, val_path, test_path = dataset
    ckpt_path = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(write_config(tmp_path)), "--seed", "0",
                 "--train-path", str(train_path), "--val-path", str(val_path),
                 "--checkpoint-path", str(ckpt_path)]) == 0
    ckpt = load_checkpoint(ckpt_path)
    ckpt.arrays["ts_head.b_out"][:] = np.nan
    save_checkpoint(ckpt_path, ckpt)
    assert main(["eval", "--checkpoint", str(ckpt_path), "--data", str(test_path)]) == 4
    assert main(["predict", "--checkpoint", str(ckpt_path), "--data", str(test_path),
                 "--out", str(tmp_path / "pred.jsonl")]) == 4


# ------------------------------------------------------------------ ablate

def test_ablate_runs_the_switch_matrix(tmp_path, dataset, capsys):
    train_path, val_path, test_path = dataset
    cfg = write_config(tmp_path)
    rc = main(["ablate", "--config", str(cfg), "--seeds", "0",
               "--train-path", str(train_path), "--val-path", str(val_path),
               "--test-path", str(test_path)])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("ablate ")]
    # ts modality: the text toggle collapses, leaving one line per embedding
    assert len(lines) == 3
    assert {l.split("ts_embed=")[1].split()[0] for l in lines} == {"utde", "imputation", "mtand"}
    assert all("auroc=" in l for l in lines)


def test_ablate_rejects_empty_seed_list(tmp_path, dataset, capsys):
    train_path, val_path, test_path = dataset
    cfg = write_config(tmp_path)
    rc = main(["ablate", "--config", str(cfg), "--seeds", ",",
               "--train-path", str(train_path), "--val-path", str(val_path),
               "--test-path", str(test_path)])
    assert rc == 2
