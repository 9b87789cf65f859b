"""Training loop, checkpoint selection, evaluation, prediction, aggregation.

Determinism contract: (config, seed, data) fully determine every emitted
number. Shuffle order comes from a generator seeded by the run seed; each
mini-batch is processed in groups of GROUP_SIZE episodes in batch order, one
tape per group with its loss weighted by its share of the batch, so the
summed gradients are the batch mean; scoring runs in the same groups. The
best validation snapshot is kept with earliest-epoch tie-breaking.

Adam updates the model's flat parameter buffer in place; each group's
backward adds into views of the optimizer's gradient buffer. The best
snapshot is taken only before a step would change it: one copy of the
parameter buffer when an epoch >= 1 leads, and none while the initialization
(epoch 0) leads, since ``init_model(config)`` redraws it bit for bit from the
seed once training ends.

Allocator policy (glibc only, process-wide): ``train`` first fixes glibc's
malloc thresholds, once per process, through ``mallopt``. Blocks of
MMAP_THRESHOLD and up (the parameter buffer, its gradient, Adam's moments,
checkpoint buffers) get their own mappings and go back to the kernel when
freed, so they leave no hole in the heap; every tape activation is served
from the heap, which keeps up to TRIM_THRESHOLD of freed top pages resident,
so the next group reuses the pages the last group's backward freed instead of
faulting them in again. Fixing either value also stops glibc's dynamic
threshold from rising with the largest mapped block freed so far. Elsewhere
the call is a no-op; no arithmetic depends on it.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import json
import logging
import math
import os
import platform
import zlib
from dataclasses import dataclass

import numpy as np

from .data import DataError, Episode, NormalizationStats, normalize, stats_from_record, stats_record
from .metrics import EvalReport, evaluate_scores, f1_binary, macro_f1
from .model import (
    ModelParams,
    PreparedEpisode,
    RunConfig,
    collate,
    forward,
    init_model,
    model_skeleton,
    prepare_episode,
)
from .tensor import Tape, adam_init, adam_step, bce_with_logits, buffer_views
from .tensor import _sigmoid as _sigmoid_np

log = logging.getLogger(__name__)

__all__ = [
    "NumericalError",
    "Checkpoint",
    "train",
    "evaluate",
    "predict",
    "run_seeds",
    "aggregate_reports",
    "save_checkpoint",
    "load_checkpoint",
]

_SHUFFLE_TAG = 3001  # keeps the shuffle stream disjoint from init/generator streams

# glibc mallopt(3) parameters and the values train sets. 4 MiB is also where
# numpy starts to madvise huge pages; the largest tape activation of a default
# group is about 1 MB, a default fused parameter buffer 4.4 MB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 64 << 20


@functools.cache
def _fix_allocator() -> bool:
    """Set glibc's mmap and trim thresholds, once per process; False off glibc
    or if glibc refuses a value."""
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    trim_set = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(mmap_set and trim_set)


# Episodes per tape, in training and scoring. A larger group raises the
# training peak by its tape (a default fused group of 8 holds about 14 MB of
# activations) without training faster: benchmark train_fused, 20 s, seeds
# 105-107, 1 BLAS thread, read a peak RSS of 80.1-80.2 MB at 8 and
# 94.3-94.6 MB at 16, with episodes/s within the host's noise.
GROUP_SIZE = 8


class NumericalError(RuntimeError):
    """Optimization produced a non-finite loss, or a model a non-finite score."""


# ------------------------------------------------------------------ checkpoint

@dataclass
class Checkpoint:
    """Best-validation parameter snapshot plus everything needed to rerun it."""

    buffer: np.ndarray  # every parameter value, flat, in index order
    index: list[tuple[str, tuple[int, ...]]]  # (flat parameter name, shape), in ModelParams.flat() order
    config: RunConfig
    stats: NormalizationStats
    epoch: int
    metric_name: str
    metric_value: float

    def build_params(self) -> ModelParams:
        """The config's model viewing ``buffer`` itself; DataError if the index disagrees."""
        params = model_skeleton(self.config)
        _check_index(self.index, [(name, t.shape) for name, t in params.flat().items()])
        params.adopt(self.buffer)
        return params


def _check_index(index: list, layout: list) -> None:
    """Raise DataError naming the first entry where a checkpoint's (name,
    shape) index and the model's parameter layout disagree."""
    if index != layout:
        at = next(i for i, (a, b) in enumerate(zip([*index, None], [*layout, None])) if a != b)
        listed = f"entry {index[at][0]} {index[at][1]}" if at < len(index) else "no entry"
        built = f"parameter {layout[at][0]} {layout[at][1]}" if at < len(layout) else "no parameter"
        raise DataError(f"checkpoint index lists {listed} where the model has {built}")


# Version 4: line 1 is the JSON meta, whose "config" names no file (equal
# runs write equal bytes wherever their files live), whose "index" of (name,
# shape) pairs orders the parameters and whose "crc32" checks the rest of the
# file, every parameter value as one little-endian float64 buffer.
CHECKPOINT_FORMAT = 4
_MAX_META_BYTES = 1 << 20  # a file with no newline within this many bytes is not a checkpoint


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    params = np.ascontiguousarray(ckpt.buffer, dtype="<f8").data
    meta = {
        "format_version": CHECKPOINT_FORMAT,
        "config": dataclasses.asdict(ckpt.config),
        "stats": stats_record(ckpt.stats),
        "epoch": ckpt.epoch,
        "metric_name": ckpt.metric_name,
        "metric_value": ckpt.metric_value,
        "index": [[name, list(shape)] for name, shape in ckpt.index],
        "crc32": zlib.crc32(params),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(meta).encode("utf-8") + b"\n")
        f.write(params)


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as f:
            line = f.readline(_MAX_META_BYTES)
            if not (line.startswith(b"{") and line.endswith(b"\n")):
                raise ValueError(f"no JSON meta line within its first {_MAX_META_BYTES} bytes")
            meta = json.loads(line)
            version = meta.get("format_version")
            if version != CHECKPOINT_FORMAT:
                raise ValueError(f"checkpoint format version {version}, this release reads {CHECKPOINT_FORMAT}")
            index = [(str(name), tuple(int(n) for n in dims)) for name, dims in meta["index"]]
            if any(n < 0 for _, dims in index for n in dims):
                raise ValueError("checkpoint index has a negative dimension")
            listed = sum(math.prod(dims) for _, dims in index)
            stored = os.fstat(f.fileno()).st_size - f.tell()
            if stored != 8 * listed:  # checked before allocating what the index asks for
                raise ValueError(f"parameter buffer is {stored} bytes; the index lists {listed} values")
            buffer = np.empty(listed, dtype="<f8")
            if f.readinto(buffer) != stored or zlib.crc32(buffer) != meta["crc32"]:
                raise ValueError("parameter buffer fails its crc32 check")
        config = RunConfig(**meta["config"]).validate()
        stats = stats_from_record(meta["stats"])
        if stats.feature_min.size != config.n_features:
            raise ValueError(f"stats cover {stats.feature_min.size} features, the config has {config.n_features}")
        return Checkpoint(
            buffer=buffer,
            index=index,
            config=config,
            stats=stats,
            epoch=int(meta["epoch"]),
            metric_name=str(meta["metric_name"]),
            metric_value=float(meta["metric_value"]),
        )
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"unreadable checkpoint {path}: {e}") from e


# ------------------------------------------------------------------ scoring

def _prepare_split(
    config: RunConfig, stats: NormalizationStats, episodes: list[Episode]
) -> list[PreparedEpisode]:
    """Normalize and prepare a split for scoring."""
    if not episodes:
        raise DataError("cannot score an empty episode list")
    normed, _ = normalize(episodes, stats=stats)
    return [prepare_episode(ep, config, stats) for ep in normed]


def _score_prepared(
    params: ModelParams, config: RunConfig, preps: list[PreparedEpisode]
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Forward and sigmoid every prepared episode; one code path for
    validation, evaluate, and predict so their numbers agree bit-for-bit.
    A non-finite logit raises NumericalError."""
    scores = np.empty((len(preps), config.n_classes))
    for start, group in _groups(preps):
        logits = forward(collate(group), params, config).data
        bad = ~np.isfinite(logits).all(axis=1)
        if bad.any():
            raise NumericalError(f"non-finite score for episode {group[int(np.argmax(bad))].episode_id}")
        scores[start : start + len(group)] = _sigmoid_np(logits)
    return [p.episode_id for p in preps], scores, np.stack([p.label for p in preps])


def _groups(preps: list[PreparedEpisode]):
    """(start index, episodes) of consecutive GROUP_SIZE slices."""
    for start in range(0, len(preps), GROUP_SIZE):
        yield start, preps[start : start + GROUP_SIZE]


def _selection_metric(scores: np.ndarray, labels: np.ndarray, task: str) -> float:
    if task == "binary":
        return f1_binary(scores[:, 0], labels[:, 0])
    return macro_f1(scores, labels)


# ------------------------------------------------------------------ training

def train(
    config: RunConfig,
    train_episodes: list[Episode],
    val_episodes: list[Episode],
    loss_trace: list[float] | None = None,
    val_trace: list[float] | None = None,
) -> Checkpoint:
    """Mini-batch Adam on per-logit sigmoid cross-entropy; keeps the snapshot
    with the best validation F1 (binary) or macro-F1 (multi-label).

    Epoch 0 is the initialization itself, so epochs=0 returns the scored
    initial parameters. While it is the best epoch, training keeps no copy of
    it; if it is still best after a step, its buffer is redrawn once from the
    seed at the end. Optional trace lists collect per-batch mean losses and
    the per-epoch validation metric for inspection.

    On glibc, the first call in a process fixes the allocator's thresholds
    for the whole process (see the module docstring); results do not depend
    on it.
    """
    _fix_allocator()
    config.validate()
    if not train_episodes or not val_episodes:
        raise DataError("training needs non-empty train and validation splits")
    train_normed, stats = normalize(
        train_episodes, alpha_hours=config.alpha_hours, n_features=config.n_features
    )
    prepared = [prepare_episode(ep, config, stats) for ep in train_normed]

    params = init_model(config)
    flat = params.flat()
    opt = adam_init(params.buffer, lr=config.lr)
    into = dict(zip(flat.values(), buffer_views(opt.grad_buffer, [t.shape for t in flat.values()])))
    metric_name = "f1" if config.task == "binary" else "macro_f1"

    val_prepared = _prepare_split(config, stats, val_episodes)

    def val_metric() -> float:
        _, scores, labels = _score_prepared(params, config, val_prepared)
        return _selection_metric(scores, labels, config.task)

    best_value = val_metric()
    # the live buffer while the current parameters are the best; None once a
    # step has moved past the initialization while it still leads
    best_buffer = params.buffer
    best_epoch = 0
    if val_trace is not None:
        val_trace.append(best_value)
    log.info("epoch 0 (init): val %s=%.6f", metric_name, best_value)

    shuffle_rng = np.random.default_rng([config.seed, _SHUFFLE_TAG])
    n = len(prepared)
    batch = config.batch_size
    for epoch in range(1, config.resolved_epochs() + 1):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for batch_index, start in enumerate(range(0, n, batch)):
            chunk = [prepared[i] for i in order[start : start + batch]]
            opt.grad_buffer.fill(0.0)
            batch_loss = 0.0
            for _, group in _groups(chunk):
                share = len(group) / len(chunk)
                episodes = collate(group)
                with Tape() as tape:
                    logits = forward(episodes, params, config)
                    loss = bce_with_logits(logits, episodes.labels, config.pos_weight)
                    tape.backward(loss * share, into=into)
                batch_loss += loss.item() * share
            if not np.isfinite(batch_loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index} (lr={config.lr})"
                )
            if config.grad_clip is not None:
                total = math.sqrt(float(np.dot(opt.grad_buffer, opt.grad_buffer)))
                if total > config.grad_clip:
                    opt.grad_buffer *= config.grad_clip / total
            if best_buffer is params.buffer:
                best_buffer = params.buffer.copy() if best_epoch else None
            adam_step(flat, opt)
            epoch_losses.append(batch_loss)
            if loss_trace is not None:
                loss_trace.append(batch_loss)
        value = val_metric()
        if val_trace is not None:
            val_trace.append(value)
        log.info(
            "epoch %d: mean loss=%.6f val %s=%.6f", epoch, np.mean(epoch_losses), metric_name, value
        )
        if value > best_value:
            best_value = value
            best_buffer = params.buffer
            best_epoch = epoch

    return Checkpoint(
        buffer=init_model(config).buffer if best_buffer is None else best_buffer,
        index=[(name, t.shape) for name, t in flat.items()],
        config=config,
        stats=stats,
        epoch=best_epoch,
        metric_name=metric_name,
        metric_value=best_value,
    )


# ------------------------------------------------------------------ inference

def _score_checkpoint(ckpt: Checkpoint, episodes: list[Episode]) -> tuple[list[str], np.ndarray, np.ndarray]:
    params = ckpt.build_params()
    return _score_prepared(params, ckpt.config, _prepare_split(ckpt.config, ckpt.stats, episodes))


def evaluate(ckpt: Checkpoint, episodes: list[Episode]) -> EvalReport:
    """Read-only forward passes over a split, reduced in input order."""
    _, scores, labels = _score_checkpoint(ckpt, episodes)
    return evaluate_scores(scores, labels, task=ckpt.config.task)


def predict(ckpt: Checkpoint, episodes: list[Episode]) -> list[tuple[str, np.ndarray]]:
    """(episode id, per-class sigmoid probabilities) in input order."""
    ids, scores, _ = _score_checkpoint(ckpt, episodes)
    return list(zip(ids, scores))


# ------------------------------------------------------------------ multi-seed

def run_seeds(
    config: RunConfig,
    seeds: list[int],
    train_episodes: list[Episode],
    val_episodes: list[Episode],
    test_episodes: list[Episode],
) -> list[EvalReport]:
    """Train one model per seed and evaluate each on the test split; each
    checkpoint is dropped once evaluated."""
    return [
        evaluate(train(dataclasses.replace(config, seed=seed), train_episodes, val_episodes), test_episodes)
        for seed in seeds
    ]


def aggregate_reports(reports: list[EvalReport]) -> dict[str, tuple[float, float]]:
    """Mean and population standard deviation of each metric across runs."""
    if not reports:
        raise ValueError("nothing to aggregate")
    keys = ["f1", "aupr", "auroc"]
    if all(r.macro_f1 is not None for r in reports):
        keys.append("macro_f1")
    out = {}
    for key in keys:
        values = np.array([getattr(r, key) for r in reports], dtype=np.float64)
        out[key] = (float(values.mean()), float(values.std()))
    return out
