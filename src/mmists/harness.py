"""Training loop, checkpoint selection, evaluation, prediction, aggregation.

Determinism contract: (config, seed, data) fully determine every emitted
number. Shuffle order comes from a generator seeded by the run seed; each
mini-batch is processed in groups of GROUP_SIZE episodes in batch order, one
tape per group with its loss weighted by its share of the batch, so the
summed gradients are the batch mean; scoring runs in the same groups. The
best validation snapshot is kept with earliest-epoch tie-breaking.
"""

from __future__ import annotations

import dataclasses
import io
import json
import logging
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .data import DataError, Episode, NormalizationStats, normalize
from .gating import compute_gate
from .imputation import ReferenceGrid, conv_embed
from .metrics import EvalReport, evaluate_scores, f1_binary, macro_f1
from .model import (
    ConfigError,
    ModelParams,
    PreparedEpisode,
    RunConfig,
    collate,
    forward,
    init_model,
    model_skeleton,
    prepare_episode,
)
from .mtand import mtand_ts
from .tensor import Tape, Tensor, adam_init, adam_step, bce_with_logits
from .tensor import _sigmoid as _sigmoid_np

log = logging.getLogger(__name__)

__all__ = [
    "NumericalError",
    "Checkpoint",
    "train",
    "evaluate",
    "predict",
    "gate_summary",
    "run_seeds",
    "aggregate_reports",
    "save_checkpoint",
    "load_checkpoint",
]

_SHUFFLE_TAG = 3001  # keeps the shuffle stream disjoint from init/generator streams

# Episodes per tape, in training and scoring: the largest power of two whose
# training peak RSS stays at or below that of the previous release (groups of
# 4 with unfused ops). At the default architecture a group of 8 holds about
# 15 MB of tape activations, 1.9 MB per episode (unfused ops held 2.7 MB).
# Fused benchmark training run, 25 s, seeds 105-107, 1 BLAS thread: peak RSS
# 94.7-94.9 MB at 8 and 111.1-111.4 MB at 16, against 99.3-99.5 MB for the
# previous release.
GROUP_SIZE = 8


class NumericalError(RuntimeError):
    """Optimization produced a non-finite loss, or a model a non-finite score."""


# ------------------------------------------------------------------ checkpoint

@dataclass
class Checkpoint:
    """Best-validation parameter snapshot plus everything needed to rerun it."""

    arrays: dict[str, np.ndarray]  # flat parameter name -> value copy
    config: RunConfig
    stats: NormalizationStats
    epoch: int
    metric_name: str
    metric_value: float

    def build_params(self) -> ModelParams:
        params = model_skeleton(self.config)
        load_arrays(params, self.arrays)
        return params


def snapshot_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.flat().items()}


def load_arrays(params: ModelParams, arrays: dict[str, np.ndarray]) -> None:
    flat = params.flat()
    if set(flat) != set(arrays):
        odd = set(flat) ^ set(arrays)
        raise DataError(f"checkpoint parameters do not match the model: {sorted(odd)[:4]}")
    for name, t in flat.items():
        if t.data.shape != arrays[name].shape:
            raise DataError(
                f"checkpoint entry {name} has shape {arrays[name].shape}, model expects {t.data.shape}"
            )
        t.data[...] = arrays[name]


# Version 2 stores every parameter in one float64 buffer, in the order the
# meta "index" of (name, shape) pairs lists them, next to the JSON meta: two
# npz members instead of one per parameter tensor.
CHECKPOINT_FORMAT = 2
_FIXED_ZIP_TIME = (1980, 1, 1, 0, 0, 0)  # member timestamps, so equal checkpoints give equal bytes


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    meta = {
        "format_version": CHECKPOINT_FORMAT,
        "config": dataclasses.asdict(ckpt.config),
        "stats": {
            "min": ckpt.stats.feature_min.tolist(),
            "max": ckpt.stats.feature_max.tolist(),
            "global_mean": ckpt.stats.global_mean.tolist(),
            "alpha_hours": ckpt.stats.alpha_hours,
        },
        "epoch": ckpt.epoch,
        "metric_name": ckpt.metric_name,
        "metric_value": ckpt.metric_value,
        "index": [[name, list(value.shape)] for name, value in ckpt.arrays.items()],
    }
    # np.savez stamps each member with the current time; an npz written with
    # a fixed stamp loads the same way through np.load
    with open(path, "wb") as f, zipfile.ZipFile(f, "w", zipfile.ZIP_STORED) as bundle:
        with bundle.open(zipfile.ZipInfo("meta.npy", date_time=_FIXED_ZIP_TIME), "w") as member:
            meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            np.lib.format.write_array(member, meta_bytes, allow_pickle=False)
        params = zipfile.ZipInfo("params.npy", date_time=_FIXED_ZIP_TIME)
        with bundle.open(params, "w", force_zip64=True) as member:
            # the buffer is streamed one parameter at a time: concatenating
            # it first would hold a second copy of every parameter
            size = sum(value.size for value in ckpt.arrays.values())
            header = {"descr": "<f8", "fortran_order": False, "shape": (size,)}
            np.lib.format.write_array_header_1_0(member, header)
            for value in ckpt.arrays.values():
                member.write(np.ascontiguousarray(value, dtype="<f8").data)


def _read_params(bundle: zipfile.ZipFile, index) -> dict[str, np.ndarray]:
    """Read the parameter buffer into one array per (name, shape) index entry;
    one array for the whole buffer would be a second copy of every parameter
    at its peak."""
    shapes = [(str(name), tuple(int(n) for n in dims)) for name, dims in index]
    if any(n < 0 for _, dims in shapes for n in dims):
        raise ValueError("checkpoint index has a negative dimension")
    listed = sum(math.prod(dims) for _, dims in shapes)
    with bundle.open("params.npy") as member:
        version = np.lib.format.read_magic(member)
        if version != (1, 0):  # what save_checkpoint and np.savez write for a 1-d array
            raise ValueError(f"parameter buffer has npy format {version}")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
        stored = bundle.getinfo("params.npy").file_size - member.tell()
        if dtype != np.dtype("<f8") or fortran_order or shape != (listed,) or stored != 8 * listed:
            raise ValueError(
                f"parameter buffer is {dtype} {shape} in {stored} bytes; the index lists {listed} values"
            )
        payload = io.BufferedReader(member, buffer_size=1 << 18)  # few, large reads of the zip member
        arrays = {}
        for name, dims in shapes:
            value = arrays[name] = np.empty(dims)
            payload.readinto(memoryview(value).cast("B"))
    return arrays


def load_checkpoint(path) -> Checkpoint:
    try:
        with zipfile.ZipFile(path) as bundle:
            with bundle.open("meta.npy") as member:
                meta = json.loads(np.lib.format.read_array(member).tobytes().decode("utf-8"))
            version = meta.get("format_version")
            if version != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"checkpoint format version {version}, this release reads {CHECKPOINT_FORMAT}"
                )
            arrays = _read_params(bundle, meta["index"])
        stats = NormalizationStats(
            feature_min=np.asarray(meta["stats"]["min"], dtype=np.float64),
            feature_max=np.asarray(meta["stats"]["max"], dtype=np.float64),
            global_mean=np.asarray(meta["stats"]["global_mean"], dtype=np.float64),
            alpha_hours=float(meta["stats"]["alpha_hours"]),
        )
        return Checkpoint(
            arrays=arrays,
            config=RunConfig(**meta["config"]).validate(),
            stats=stats,
            epoch=int(meta["epoch"]),
            metric_name=str(meta["metric_name"]),
            metric_value=float(meta["metric_value"]),
        )
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as e:
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
    initial parameters. Optional trace lists collect per-batch mean losses
    and the per-epoch validation metric for inspection.
    """
    config.validate()
    if not train_episodes or not val_episodes:
        raise DataError("training needs non-empty train and validation splits")
    train_normed, stats = normalize(
        train_episodes, alpha_hours=config.alpha_hours, n_features=config.n_features
    )
    prepared = [prepare_episode(ep, config, stats) for ep in train_normed]

    params = init_model(config)
    flat = params.flat()
    opt = adam_init(flat, lr=config.lr)
    metric_name = "f1" if config.task == "binary" else "macro_f1"

    val_prepared = _prepare_split(config, stats, val_episodes)

    def val_metric() -> float:
        _, scores, labels = _score_prepared(params, config, val_prepared)
        return _selection_metric(scores, labels, config.task)

    best_value = val_metric()
    best_arrays = snapshot_arrays(params)
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
            grads: dict[str, np.ndarray] = {}
            batch_loss = 0.0
            for _, group in _groups(chunk):
                share = len(group) / len(chunk)
                episodes = collate(group)
                with Tape() as tape:
                    logits = forward(episodes, params, config)
                    loss = bce_with_logits(logits, episodes.labels, config.pos_weight)
                    tape.backward(loss * share, into={flat[name]: g for name, g in grads.items()})
                batch_loss += loss.item() * share
                for name, t in flat.items():
                    if name not in grads:
                        g = tape.grad_or_none(t)
                        if g is not None:
                            grads[name] = g
            if not np.isfinite(batch_loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index} (lr={config.lr})"
                )
            if config.grad_clip is not None:
                total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
                if total > config.grad_clip:
                    scale = config.grad_clip / total
                    for g in grads.values():
                        g *= scale
            adam_step(flat, grads, opt)
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
            best_arrays = snapshot_arrays(params)
            best_epoch = epoch

    return Checkpoint(
        arrays=best_arrays,
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


def gate_summary(ckpt: Checkpoint, episodes: list[Episode]) -> list[tuple[str, float]]:
    """Mean blend-gate activation per episode, for gated time-series runs."""
    config = ckpt.config
    if config.ts_embed != "utde":
        raise ConfigError(f"gate summary needs ts_embed='utde', got {config.ts_embed!r}")
    if not episodes:
        raise DataError("cannot summarize an empty episode list")
    params = ckpt.build_params()
    grid = ReferenceGrid(config.alpha)
    normed, _ = normalize(episodes, stats=ckpt.stats)
    out = []
    for ep in normed:
        prep = prepare_episode(ep, config, ckpt.stats)
        e_imp = conv_embed(Tensor(prep.imputed), params.conv_kernel, params.conv_bias)
        e_attn = mtand_ts(prep.feature_series, grid, params.ts_interp)
        g = compute_gate(e_imp, e_attn, params.gate)
        out.append((ep.episode_id, float(g.data.mean())))
    return out


# ------------------------------------------------------------------ multi-seed

def run_seeds(
    config: RunConfig,
    seeds: list[int],
    train_episodes: list[Episode],
    val_episodes: list[Episode],
    test_episodes: list[Episode],
) -> tuple[list[Checkpoint], list[EvalReport]]:
    """Train one model per seed and evaluate each on the test split."""
    checkpoints = []
    reports = []
    for seed in seeds:
        ckpt = train(dataclasses.replace(config, seed=seed), train_episodes, val_episodes)
        checkpoints.append(ckpt)
        reports.append(evaluate(ckpt, test_episodes))
    return checkpoints, reports


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
