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
import json
import logging
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
    """Optimization produced a non-finite loss."""


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


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    meta = {
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
    }
    payload = {f"param/{name}": value for name, value in ckpt.arrays.items()}
    payload["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as f:  # a file handle keeps the exact path (no .npz suffixing)
        np.savez(f, **payload)


def load_checkpoint(path) -> Checkpoint:
    try:
        with np.load(path) as bundle:
            meta = json.loads(bundle["meta"].tobytes().decode("utf-8"))
            arrays = {
                key[len("param/"):]: bundle[key]
                for key in bundle.files
                if key.startswith("param/")
            }
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
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"unreadable checkpoint {path}: {e}") from e


# ------------------------------------------------------------------ scoring

def _score_episodes(
    params: ModelParams,
    config: RunConfig,
    stats: NormalizationStats,
    episodes: list[Episode],
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Normalize, forward, and sigmoid every episode; one code path for
    validation, evaluate, and predict so their numbers agree bit-for-bit."""
    if not episodes:
        raise DataError("cannot score an empty episode list")
    normed, _ = normalize(episodes, stats=stats)
    preps = [prepare_episode(ep, config, stats) for ep in normed]
    scores = np.empty((len(preps), config.n_classes))
    for start, group in _groups(preps):
        scores[start : start + len(group)] = _sigmoid_np(forward(collate(group), params, config).data)
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

    def val_metric() -> float:
        _, scores, labels = _score_episodes(params, config, stats, val_episodes)
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

def evaluate(ckpt: Checkpoint, episodes: list[Episode]) -> EvalReport:
    """Read-only forward passes over a split, reduced in input order."""
    params = ckpt.build_params()
    _, scores, labels = _score_episodes(params, ckpt.config, ckpt.stats, episodes)
    return evaluate_scores(scores, labels, task=ckpt.config.task)


def predict(ckpt: Checkpoint, episodes: list[Episode]) -> list[tuple[str, np.ndarray]]:
    """(episode id, per-class sigmoid probabilities) in input order."""
    params = ckpt.build_params()
    ids, scores, _ = _score_episodes(params, ckpt.config, ckpt.stats, episodes)
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
