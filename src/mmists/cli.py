"""Command-line front end: gen, train, eval, predict, ablate.

Run settings live in a flat ``key = value`` config file whose keys are the
RunConfig fields and the run's file locations (PATH_KEYS, which RunConfig does
not hold). The matching ``--key value`` flag overrides a key; a command has
flags only for the paths it reads (others exit 2), but one file serves both.
Exit codes: 0 success, 2 configuration error (an invalid value, or a
``--config`` file that is missing, a directory, unreadable or not UTF-8),
3 data error (bad data, any other named path that cannot be read or
written, or running out of memory), 4 numerical failure. Each failure prints
one line to stderr. An output path that is a directory, or whose directory
does not exist, is rejected before any data is loaded or model trained.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .data import (
    GEN_TASKS,
    DataError,
    GenConfig,
    TaskSchema,
    generate_synthetic,
    load_episodes,
    save_episodes,
)
from .harness import (
    NumericalError,
    aggregate_reports,
    evaluate,
    load_checkpoint,
    predict,
    run_seeds,
    save_checkpoint,
    train,
)
from .metrics import UndefinedMetricError, report_to_line
from .model import TS_EMBEDS, ConfigError, RunConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

PATH_KEYS = ("train_path", "val_path", "test_path", "checkpoint_path")
_HINTS = {**typing.get_type_hints(RunConfig), **dict.fromkeys(PATH_KEYS, str | None)}
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


# ------------------------------------------------------------------ config

def _coerce(key: str, raw: str):
    """Parse a raw string into the declared type of a RunConfig field or path key."""
    if key not in _HINTS:
        raise ConfigError(f"unknown config key {key!r}")
    hint = _HINTS[key]
    optional = False
    if isinstance(hint, types.UnionType):
        parts = [a for a in typing.get_args(hint) if a is not type(None)]
        hint = parts[0]
        optional = True
    raw = raw.strip()
    if optional and raw.lower() in {"none", ""}:
        return None
    if hint is bool:
        if raw.lower() in _TRUE:
            return True
        if raw.lower() in _FALSE:
            return False
        raise ConfigError(f"{key} expects a boolean, got {raw!r}")
    try:
        return hint(raw)
    except ValueError as e:
        raise ConfigError(f"{key} expects {hint.__name__}, got {raw!r}") from e


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and # comments are skipped.
    A file that cannot be read as UTF-8 text is a ``ConfigError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = body.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _add_runconfig_flags(parser: argparse.ArgumentParser, *paths: str) -> None:
    parser.add_argument("--config", help="flat key = value settings file")
    for key in [*typing.get_type_hints(RunConfig), *paths]:  # only the paths the command reads
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{key}", metavar="VALUE", default=None)


def build_run_config(args: argparse.Namespace) -> tuple[RunConfig, dict[str, str | None]]:
    """defaults < config file < command-line flags, all validated at the end;
    returns the config and the PATH_KEYS locations (None where unset)."""
    values: dict[str, object] = {}
    if args.config:
        for key, raw in read_config_file(args.config).items():
            values[key] = _coerce(key, raw)
    for key in _HINTS:
        raw = getattr(args, f"cfg_{key}", None)
        if raw is not None:
            values[key] = _coerce(key, raw)
    paths = {key: values.pop(key, None) for key in PATH_KEYS}
    return RunConfig(**values).validate(), paths


def _schema(config: RunConfig) -> TaskSchema:
    return TaskSchema(
        n_features=config.n_features, n_classes=config.n_classes, text_dim=config.text_dim
    )


def _require(paths: dict[str, str | None], *keys: str) -> None:
    for key in keys:
        if paths[key] is None:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{key} is required (set it in the config file or via {flag})")


def _check_output_path(path) -> None:
    """DataError when ``path`` is a directory or its directory does not exist."""
    p = Path(path)
    if p.is_dir() or not p.parent.is_dir():
        raise DataError(f"output path {path} {'is a directory' if p.is_dir() else 'is in a missing directory'}")


# ------------------------------------------------------------------ commands

def cmd_gen(args: argparse.Namespace) -> int:
    gen = GenConfig(
        n_episodes=args.n_episodes,
        n_features=args.n_features,
        text_dim=args.text_dim,
        alpha_hours=args.alpha_hours,
        sparsity=args.sparsity,
        task=args.task,
        seed=args.seed,
    )
    episodes = generate_synthetic(gen)
    save_episodes(args.out, episodes)
    print(f"gen task={gen.task} n={len(episodes)} seed={gen.seed} out={args.out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config, paths = build_run_config(args)
    _require(paths, "train_path", "val_path", "checkpoint_path")
    _check_output_path(paths["checkpoint_path"])
    schema = _schema(config)
    train_eps = load_episodes(paths["train_path"], schema)
    val_eps = load_episodes(paths["val_path"], schema)
    ckpt = train(config, train_eps, val_eps)
    save_checkpoint(paths["checkpoint_path"], ckpt)
    print(
        f"train seed={config.seed} best_epoch={ckpt.epoch} "
        f"{ckpt.metric_name}={ckpt.metric_value!r} checkpoint={paths['checkpoint_path']}"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.out:
        _check_output_path(args.out)
    ckpt = load_checkpoint(args.checkpoint)
    episodes = load_episodes(args.data, _schema(ckpt.config))
    report = evaluate(ckpt, episodes)
    print(report_to_line(report, prefix=Path(args.data).stem))
    if args.out:
        Path(args.out).write_text(
            json.dumps(dataclasses.asdict(report)) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    _check_output_path(args.out)
    ckpt = load_checkpoint(args.checkpoint)
    episodes = load_episodes(args.data, _schema(ckpt.config))
    rows = predict(ckpt, episodes)
    with open(args.out, "w", encoding="utf-8") as f:
        for episode_id, scores in rows:
            f.write(json.dumps({"episode_id": episode_id, "scores": scores.tolist()}) + "\n")
    print(f"predict n={len(rows)} out={args.out}")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    config, paths = build_run_config(args)
    _require(paths, "train_path", "val_path", "test_path")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"--seeds expects comma-separated integers, got {args.seeds!r}") from e
    if not seeds:
        raise ConfigError(f"--seeds needs at least one integer, got {args.seeds!r}")
    for seed in seeds:  # before any data is loaded or model trained
        dataclasses.replace(config, seed=seed).validate()
    schema = _schema(config)
    train_eps = load_episodes(paths["train_path"], schema)
    val_eps = load_episodes(paths["val_path"], schema)
    test_eps = load_episodes(paths["test_path"], schema)

    # switch matrix; toggles without effect on the chosen modality collapse away
    ts_embeds = [config.ts_embed] if config.modality == "txt" else TS_EMBEDS
    text_flags = [config.text_irregularity] if config.modality == "ts" else [True, False]
    for ts_embed, text_flag in itertools.product(ts_embeds, text_flags):
        variant = dataclasses.replace(config, ts_embed=ts_embed, text_irregularity=text_flag)
        summary = aggregate_reports(run_seeds(variant, seeds, train_eps, val_eps, test_eps))
        cells = " ".join(
            f"{key}={mean:.4f}±{std:.4f}" for key, (mean, std) in summary.items()
        )
        print(
            f"ablate modality={variant.modality} ts_embed={ts_embed} "
            f"text_irregularity={str(text_flag).lower()} seeds={len(seeds)} {cells}"
        )
    return EXIT_OK


# ------------------------------------------------------------------ entry

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmists",
        description="Irregular multimodal sequence model: data generation, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic episode dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--n-episodes", type=int, required=True)
    gen.add_argument("--task", required=True, choices=GEN_TASKS)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n-features", type=int, default=4)
    gen.add_argument("--text-dim", type=int, default=16)
    gen.add_argument("--alpha-hours", type=float, default=24.0)
    gen.add_argument("--sparsity", type=float, default=0.3)
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train and write the best-validation checkpoint")
    _add_runconfig_flags(tr, "train_path", "val_path", "checkpoint_path")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a dataset with a saved checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", help="also write the report as JSON")
    ev.set_defaults(func=cmd_eval)

    pr = sub.add_parser("predict", help="write per-episode class probabilities")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    ab = sub.add_parser("ablate", help="run the embedding/text-handling switch matrix")
    _add_runconfig_flags(ab, "train_path", "val_path", "test_path")
    ab.add_argument("--seeds", default="0,1,2", help="comma-separated training seeds")
    ab.set_defaults(func=cmd_ablate)

    for command in sub.choices.values():  # so that main reports errors with the command's usage
        command.set_defaults(usage_error=command.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # each error below prints the command's usage and exits with code 2
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "train" and args.cfg_seed is None:
        args.usage_error("train requires an explicit --seed")
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, UndefinedMetricError, OSError, MemoryError) as e:
        print(f"data error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
