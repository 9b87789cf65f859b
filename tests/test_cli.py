"""Command-line behavior: config handling, subcommands, exit codes."""

import json
import math

import numpy as np
import pytest

from mmists import cli
from mmists.cli import build_parser, build_run_config, main, read_config_file
from mmists.data import TaskSchema, load_episodes
from mmists.harness import load_checkpoint, save_checkpoint
from mmists.model import ConfigError

from conftest import checkpoint_arrays


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


def one_error_line(capsys, prefix: str) -> str:
    """The single stderr line a failed command printed, checked to start with ``prefix``."""
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert "Traceback" not in err and len(lines) == 1 and lines[0].startswith(prefix), err
    return lines[0]


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
    path = write_config(tmp_path, extra={"lr": "0.1", "train_path": "a.jsonl", "val_path": "b.jsonl"})
    parser = build_parser()
    args = parser.parse_args(["train", "--config", str(path), "--lr", "0.002", "--seed", "7",
                              "--val-path", "c.jsonl"])
    config, paths = build_run_config(args)
    assert config.lr == 0.002  # flag wins
    assert config.alpha == 6  # file wins over the dataclass default
    assert config.seed == 7
    assert paths == {"train_path": "a.jsonl", "val_path": "c.jsonl", "test_path": None, "checkpoint_path": None}


def test_stats_path_is_no_longer_a_setting(tmp_path, dataset, capsys):
    train_path, val_path, _ = dataset
    argv = ["train", "--seed", "0", "--train-path", str(train_path), "--val-path", str(val_path),
            "--checkpoint-path", str(tmp_path / "x.ckpt")]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--config", str(write_config(tmp_path)), "--stats-path", str(tmp_path / "stats.json")])
    assert err.value.code == 2
    capsys.readouterr()
    cfg = write_config(tmp_path, extra={"stats_path": str(tmp_path / "stats.json")})
    assert main([*argv, "--config", str(cfg)]) == 2
    assert "unknown config key 'stats_path'" in one_error_line(capsys, "config error: ")
    assert not (tmp_path / "x.ckpt").exists() and not (tmp_path / "stats.json").exists()


@pytest.mark.parametrize("command, flag", [("train", "--test-path"), ("ablate", "--checkpoint-path")])
def test_path_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(write_config(tmp_path)), "--seed", "0", flag, str(tmp_path / "x")])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_config_file_may_set_every_path_key(tmp_path):
    """One config file serves train and ablate, so each accepts all four path keys."""
    path_values = {key: f"{key}.jsonl" for key in cli.PATH_KEYS}
    cfg = write_config(tmp_path, extra=path_values)
    for command in ("train", "ablate"):
        _, paths = build_run_config(build_parser().parse_args([command, "--config", str(cfg), "--seed", "0"]))
        assert paths == path_values


def test_unknown_config_key_is_config_error(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("learning_rate = 0.1\n", encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(["train", "--config", str(path), "--seed", "0"])
    with pytest.raises(ConfigError, match="unknown config key"):
        build_run_config(args)


def test_coerce_parses_words_to_booleans_and_none():
    assert cli._coerce("text_irregularity", "off") is False
    assert cli._coerce("text_irregularity", "yes") is True
    assert cli._coerce("grad_clip", "none") is None


@pytest.mark.parametrize(
    "flag, value, message",
    [("--alpha", "abc", "alpha expects int, got 'abc'"),
     ("--text-irregularity", "maybe", "text_irregularity expects a boolean, got 'maybe'")],
)
def test_unparsable_flag_value_exits_2(tmp_path, capsys, flag, value, message):
    rc = main(["train", "--seed", "0", flag, value, "--checkpoint-path", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert message in one_error_line(capsys, "config error: ")


# ------------------------------------------------------------------ gen

def test_gen_is_deterministic_and_loadable(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--n-episodes", "12", "--task", "xor_fusion", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    episodes = load_episodes(a, TaskSchema(n_features=4, n_classes=1, text_dim=16))
    assert len(episodes) == 12


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n-features", "0", "n_features must be >= 1"),
        ("--seed", "-1", "seed must be >= 0"),
        ("--alpha-hours", "0", "alpha_hours must be finite and positive"),
        ("--alpha-hours", "-3", "alpha_hours must be finite and positive"),
        ("--alpha-hours", "nan", "alpha_hours must be finite and positive"),
        ("--alpha-hours", "inf", "alpha_hours must be finite and positive"),
        ("--alpha-hours", "1e300", "sparsity * alpha_hours must be <= 1e+06 expected observations"),
        ("--text-dim", "0", "text_dim must be >= 1"),
        ("--text-dim", "-1", "text_dim must be >= 1"),
    ],
)
def test_gen_rejects_bad_value_exits_3(tmp_path, capsys, flag, value, message):
    argv = {"--n-episodes": "4", "--task": "ts_only", "--seed": "0", "--out": str(tmp_path / "x.jsonl")}
    argv[flag] = value
    assert main(["gen", *(item for pair in argv.items() for item in pair)]) == 3
    assert message in one_error_line(capsys, "data error: ")
    assert not (tmp_path / "x.jsonl").exists()


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


def test_checkpoint_bytes_do_not_depend_on_file_names(tmp_path, dataset):
    train_path, val_path, _ = dataset
    renamed = tmp_path / "copy-of-train.jsonl"
    renamed.write_bytes(train_path.read_bytes())
    (tmp_path / "elsewhere").mkdir()
    written = []
    for data, ckpt_path in [(train_path, tmp_path / "a.ckpt"), (renamed, tmp_path / "elsewhere" / "b.ckpt")]:
        assert main(["train", "--config", str(write_config(tmp_path)), "--seed", "0",
                     "--train-path", str(data), "--val-path", str(val_path),
                     "--checkpoint-path", str(ckpt_path)]) == 0
        written.append(ckpt_path.read_bytes())
    assert written[0] == written[1]


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


@pytest.mark.parametrize(
    "extra, seed, message",
    [
        ({"heads": "3"}, "0", "must divide d_hidden"),  # 3 does not divide d_hidden=8
        ({}, "-1", "seed must be >= 0"),
    ],
    ids=["heads", "negative-seed"],
)
def test_invalid_config_value_exits_2(tmp_path, dataset, capsys, extra, seed, message):
    train_path, val_path, _ = dataset
    cfg = write_config(tmp_path, extra=extra)
    rc = main(["train", "--config", str(cfg), "--seed", seed,
               "--train-path", str(train_path), "--val-path", str(val_path),
               "--checkpoint-path", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert message in one_error_line(capsys, "config error: ")


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


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err
    return err


def test_config_path_that_is_a_directory_exits_2(tmp_path, dataset, capsys):
    train_path, val_path, _ = dataset
    rc = main(["train", "--config", str(tmp_path), "--seed", "0",
               "--train-path", str(train_path), "--val-path", str(val_path),
               "--checkpoint-path", str(tmp_path / "x.ckpt")])
    assert rc == 2
    _one_line_error(capsys, "config error: cannot read config file")


def test_config_file_that_is_missing_or_not_utf8_exits_2(tmp_path, dataset, capsys):
    train_path, val_path, _ = dataset
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"lr = 1e-3 # caf\xe9\n")
    for cfg in (tmp_path / "absent.cfg", bad):
        rc = main(["train", "--config", str(cfg), "--seed", "0",
                   "--train-path", str(train_path), "--val-path", str(val_path),
                   "--checkpoint-path", str(tmp_path / "x.ckpt")])
        assert rc == 2
        _one_line_error(capsys, "config error: cannot read config file")


def _never_reached(*args, **kwargs):
    raise AssertionError("the command went on past an output path it cannot write")


def test_checkpoint_path_that_is_a_directory_exits_3(tmp_path, dataset, capsys, monkeypatch):
    train_path, val_path, _ = dataset
    monkeypatch.setattr(cli, "train", _never_reached)
    rc = main(["train", "--config", str(write_config(tmp_path)), "--seed", "0",
               "--train-path", str(train_path), "--val-path", str(val_path),
               "--checkpoint-path", str(tmp_path)])
    assert rc == 3
    _one_line_error(capsys, "data error:")


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_train_output_exits_3_before_loading_data(tmp_path, dataset, capsys, monkeypatch, where):
    train_path, val_path, _ = dataset
    monkeypatch.setattr(cli, "load_episodes", _never_reached)
    monkeypatch.setattr(cli, "train", _never_reached)
    target = tmp_path if where == "directory" else tmp_path / "absent" / "out"
    rc = main(["train", "--config", str(write_config(tmp_path)), "--seed", "0",
               "--train-path", str(train_path), "--val-path", str(val_path),
               "--checkpoint-path", str(target)])
    assert rc == 3
    _one_line_error(capsys, "data error: output path")


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_out_in_a_missing_directory_exits_3_before_loading(tmp_path, dataset, capsys, monkeypatch, command):
    _, _, test_path = dataset
    monkeypatch.setattr(cli, "load_checkpoint", _never_reached)
    rc = main([command, "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(test_path),
               "--out", str(tmp_path / "absent" / "out.jsonl")])
    assert rc == 3
    _one_line_error(capsys, "data error: output path")


@pytest.mark.parametrize("message, line", [("", "data error: out of memory"),
                                           ("Unable to allocate 8 EiB", "data error: Unable to allocate 8 EiB")])
def test_memory_error_is_one_data_error_line_and_exit_3(tmp_path, dataset, capsys, monkeypatch, message, line):
    """The loader raises MemoryError in place of allocating anything."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "load_checkpoint", out_of_memory)
    rc = main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(dataset[2])])
    assert rc == 3
    assert one_error_line(capsys, "data error: ") == line


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, dataset):
    train_path, val_path, _ = dataset
    root = tmp_path_factory.mktemp("cli-ckpt")
    path = root / "model.ckpt"
    assert main(["train", "--config", str(write_config(root)), "--seed", "0",
                 "--train-path", str(train_path), "--val-path", str(val_path),
                 "--checkpoint-path", str(path)]) == 0
    return path


def test_eval_data_that_is_a_directory_exits_3(tmp_path, trained_checkpoint, capsys):
    rc = main(["eval", "--checkpoint", str(trained_checkpoint), "--data", str(tmp_path)])
    assert rc == 3
    _one_line_error(capsys, "data error:")


def test_predict_out_that_is_a_directory_exits_3(tmp_path, dataset, trained_checkpoint, capsys):
    _, _, test_path = dataset
    rc = main(["predict", "--checkpoint", str(trained_checkpoint), "--data", str(test_path),
               "--out", str(tmp_path)])
    assert rc == 3
    _one_line_error(capsys, "data error:")


def test_duplicate_or_non_string_episode_id_exits_3(tmp_path, dataset, trained_checkpoint, capsys):
    _, _, test_path = dataset
    lines = test_path.read_text(encoding="utf-8").splitlines()
    renumbered = json.loads(lines[1])
    renumbered["id"] = 5
    for name, body in [("dup.jsonl", [lines[0], lines[1], lines[0]]),
                       ("int.jsonl", [lines[0], json.dumps(renumbered)])]:
        data = tmp_path / name
        data.write_text("\n".join(body) + "\n", encoding="utf-8")
        rc = main(["predict", "--checkpoint", str(trained_checkpoint), "--data", str(data),
                   "--out", str(tmp_path / "pred.jsonl")])
        assert rc == 3
        assert "field 'id'" in _one_line_error(capsys, "data error: line ")


def test_null_note_text_or_boolean_value_exits_3(tmp_path, dataset, trained_checkpoint, capsys):
    _, _, test_path = dataset
    lines = test_path.read_text(encoding="utf-8").splitlines()
    for field, key, bad in [("notes", "notes", [{"t": 1.0, "text": None}]),
                            ("ts", "ts", [{"f": 0, "t": 1.0, "v": True}])]:
        record = json.loads(lines[1])
        record[key] = bad
        data = tmp_path / f"{field}.jsonl"
        data.write_text("\n".join([lines[0], json.dumps(record)]) + "\n", encoding="utf-8")
        rc = main(["predict", "--checkpoint", str(trained_checkpoint), "--data", str(data),
                   "--out", str(tmp_path / "pred.jsonl")])
        assert rc == 3
        assert f"line 2: field '{field}'" in _one_line_error(capsys, "data error: ")


def test_corrupt_checkpoint_exits_3(tmp_path, dataset):
    _, _, test_path = dataset
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert main(["eval", "--checkpoint", str(bad), "--data", str(test_path)]) == 3


@pytest.mark.parametrize(
    "stats, message",
    [
        ({"min": [0.0] * 3}, "vectors of one non-zero length"),
        ({"min": [0.0] * 3, "max": [1.0] * 3, "global_mean": [0.5] * 3}, "stats cover 3 features, the config has 4"),
        ({"max": [math.inf] * 4}, "feature 0 has max - min inf"),
        ({"alpha_hours": -1.0}, "alpha_hours -1.0 is not finite and positive"),
        ({"global_mean": [math.nan] * 4}, "a global mean lies outside"),
    ],
    ids=["short-min", "too-few-features", "infinite-max", "negative-alpha-hours", "nan-global-mean"],
)
def test_checkpoint_with_bad_stats_exits_3(tmp_path, dataset, trained_checkpoint, capsys, stats, message):
    _, _, test_path = dataset
    meta, newline, buffer = trained_checkpoint.read_bytes().partition(b"\n")
    record = json.loads(meta)
    record["stats"].update(stats)
    bad = tmp_path / "bad-stats.ckpt"
    bad.write_bytes(json.dumps(record).encode("utf-8") + newline + buffer)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(test_path)]) == 3
    assert message in one_error_line(capsys, "data error: unreadable checkpoint")


def test_training_range_that_overflows_float64_exits_3(tmp_path, dataset, capsys):
    train_path, val_path, _ = dataset
    lines = train_path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["ts"] += [{"f": 0, "t": 1.0, "v": 1.7e308}, {"f": 0, "t": 2.0, "v": -1.7e308}]
    extreme = tmp_path / "extreme.jsonl"
    extreme.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
    rc = main(["train", "--config", str(write_config(tmp_path)), "--seed", "0",
               "--train-path", str(extreme), "--val-path", str(val_path),
               "--checkpoint-path", str(tmp_path / "x.ckpt")])
    assert rc == 3
    assert "feature 0 has max - min inf" in one_error_line(capsys, "data error: normalization stats")


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
    checkpoint_arrays(ckpt)["ts_head.b_out"][:] = np.nan
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


@pytest.mark.parametrize(
    "seeds, message",
    [(",", "at least one integer"), ("a,b", "comma-separated integers"), ("0,-1", "seed must be >= 0")],
    ids=["empty", "not-integers", "negative"],
)
def test_ablate_rejects_empty_seed_list(tmp_path, dataset, capsys, monkeypatch, seeds, message):
    """Every seed is checked before any data is loaded, so no seed trains."""
    def no_loading(*args, **kwargs):
        raise AssertionError("data loaded before the seeds were checked")

    monkeypatch.setattr(cli, "load_episodes", no_loading)
    train_path, val_path, test_path = dataset
    cfg = write_config(tmp_path)
    rc = main(["ablate", "--config", str(cfg), "--seeds", seeds,
               "--train-path", str(train_path), "--val-path", str(val_path),
               "--test-path", str(test_path)])
    assert rc == 2
    assert message in one_error_line(capsys, "config error: ")
