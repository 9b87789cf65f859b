"""Episode data model: ingestion, normalization, text hashing, synthetic generation.

An episode is one observation window: irregular per-feature numeric
observations, timestamped note events (raw text or precomputed embeddings),
and a {0,1} label vector. Episodes are treated as immutable; transformations
return new objects.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "TsObservation",
    "NoteEvent",
    "Episode",
    "TaskSchema",
    "NormalizationStats",
    "GenConfig",
    "load_episodes",
    "save_episodes",
    "normalize",
    "save_stats",
    "load_stats",
    "truncate_notes",
    "toy_text_encode",
    "embed_notes",
    "group_by_feature",
    "note_matrix",
    "generate_synthetic",
    "generate_synthetic_with_trace",
]


class DataError(ValueError):
    """Malformed or schema-violating input data."""


@dataclass(frozen=True)
class TsObservation:
    feature_index: int
    time: float  # hours since window start (normalized to [0,1) after normalize)
    value: float


@dataclass(frozen=True)
class NoteEvent:
    """A timestamped note carrying exactly one payload: text or an embedding."""

    time: float
    text: str | None = None
    embedding: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.text is None) == (self.embedding is None):
            raise DataError("note event needs exactly one of text or embedding")


@dataclass(frozen=True)
class Episode:
    episode_id: str
    observations: tuple[TsObservation, ...]
    notes: tuple[NoteEvent, ...]  # sorted by time, ties keep input order
    label: np.ndarray  # {0,1} ints, length 1 (binary) or L (multi-label)


@dataclass(frozen=True)
class TaskSchema:
    """Expected dataset dimensions used to validate ingested records."""

    n_features: int
    n_classes: int = 1
    text_dim: int | None = None


@dataclass(frozen=True)
class NormalizationStats:
    """Training-split feature ranges plus per-feature means of the rescaled values."""

    feature_min: np.ndarray
    feature_max: np.ndarray
    global_mean: np.ndarray  # of rescaled values, in [0,1]
    alpha_hours: float


_STABLE = "stable"


def _sorted_notes(notes) -> tuple[NoteEvent, ...]:
    order = np.argsort([n.time for n in notes], kind=_STABLE)
    return tuple(notes[i] for i in order)


def load_episodes(path, schema: TaskSchema) -> list[Episode]:
    """Parse line-delimited episode records, validating against the schema."""
    episodes: list[Episode] = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DataError(f"line {line_no}: not UTF-8 text ({e.reason})") from e
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"line {line_no}: invalid JSON ({e.msg})") from e
            episodes.append(_parse_record(rec, schema, line_no))
    return episodes


def _parse_record(rec: dict, schema: TaskSchema, line_no: int) -> Episode:
    def fail(field: str, why: str):
        raise DataError(f"line {line_no}: field '{field}': {why}")

    if not isinstance(rec, dict):
        raise DataError(f"line {line_no}: expected a JSON object, got {type(rec).__name__}")
    for key in ("id", "ts", "notes", "y"):
        if key not in rec:
            fail(key, "missing")
    for key in ("ts", "notes"):
        if not isinstance(rec[key], list):
            fail(key, f"expected a list, got {type(rec[key]).__name__}")
    obs = []
    for j, o in enumerate(rec["ts"]):
        try:
            raw_f, t, v = float(o["f"]), float(o["t"]), float(o["v"])
        except (KeyError, TypeError, ValueError, OverflowError):
            fail("ts", f"entry {j} must carry numeric f/t/v")
        if not raw_f.is_integer():
            fail("ts", f"entry {j}: feature index {o['f']!r} is not an integer")
        f = int(raw_f)
        if not 0 <= f < schema.n_features:
            fail("ts", f"entry {j}: feature index {f} outside [0, {schema.n_features})")
        if not math.isfinite(t) or t < 0:
            fail("ts", f"entry {j}: time must be finite and >= 0, got {t}")
        if not math.isfinite(v):
            fail("ts", f"entry {j}: non-finite value")
        obs.append(TsObservation(f, t, v))
    notes = []
    for j, n in enumerate(rec["notes"]):
        try:
            t = float(n["t"])
        except (KeyError, TypeError, ValueError):
            fail("notes", f"entry {j} must carry numeric t")
        if not math.isfinite(t) or t < 0:
            fail("notes", f"entry {j}: time must be finite and >= 0, got {t}")
        has_text, has_emb = "text" in n, "emb" in n
        if has_text == has_emb:
            fail("notes", f"entry {j} must carry exactly one of text/emb")
        if has_text:
            notes.append(NoteEvent(t, text=str(n["text"])))
        else:
            try:
                emb = np.asarray(n["emb"], dtype=np.float64)
            except (TypeError, ValueError):
                fail("notes", f"entry {j}: emb must be a list of numbers")
            if emb.ndim != 1:
                fail("notes", f"entry {j}: emb must be a flat vector")
            if schema.text_dim is not None and emb.shape[0] != schema.text_dim:
                fail("notes", f"entry {j}: emb length {emb.shape[0]} != {schema.text_dim}")
            if not np.all(np.isfinite(emb)):
                fail("notes", f"entry {j}: non-finite embedding")
            notes.append(NoteEvent(t, embedding=emb))
    if not notes:
        fail("notes", "episode has no notes")
    y = rec["y"]
    if not isinstance(y, list) or len(y) != schema.n_classes:
        fail("y", f"expected {schema.n_classes} labels, got {y!r}")
    if any(v not in (0, 1) for v in y):
        fail("y", f"labels must be 0/1, got {y!r}")
    return Episode(
        episode_id=str(rec["id"]),
        observations=tuple(obs),
        notes=_sorted_notes(notes),
        label=np.asarray(y, dtype=np.int64),
    )


def save_episodes(path, episodes: list[Episode]) -> None:
    """Write episodes as line-delimited records; floats round-trip bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for ep in episodes:
            rec = {
                "id": ep.episode_id,
                "ts": [{"f": o.feature_index, "t": o.time, "v": o.value} for o in ep.observations],
                "notes": [
                    {"t": n.time, "text": n.text}
                    if n.text is not None
                    else {"t": n.time, "emb": n.embedding.tolist()}
                    for n in ep.notes
                ],
                "y": ep.label.tolist(),
            }
            fh.write(json.dumps(rec) + "\n")


def normalize(
    episodes: list[Episode],
    stats: NormalizationStats | None = None,
    alpha_hours: float | None = None,
    n_features: int | None = None,
) -> tuple[list[Episode], NormalizationStats]:
    """Rescale values and times into [0,1] using training-split statistics.

    With ``stats=None`` the input is treated as the training split and stats
    are computed from it (``alpha_hours`` required, ``n_features`` inferred
    from the data if omitted). Values are mapped via (v-min)/(max-min) and
    clipped to [0,1]; constant or unseen features map to 0.5. Times divide by
    alpha_hours; observations at or past the window end are dropped, note
    times are clipped to 1.
    """
    if stats is None:
        if alpha_hours is None:
            raise DataError("alpha_hours is required when computing fresh stats")
        if n_features is None:
            n_features = 1 + max(
                (o.feature_index for ep in episodes for o in ep.observations), default=-1
            )
        fmin = np.zeros(n_features)
        fmax = np.ones(n_features)
        seen = np.zeros(n_features, dtype=bool)
        for ep in episodes:
            for o in ep.observations:
                if o.time >= alpha_hours:
                    continue
                f = o.feature_index
                if not seen[f]:
                    fmin[f] = fmax[f] = o.value
                    seen[f] = True
                else:
                    fmin[f] = min(fmin[f], o.value)
                    fmax[f] = max(fmax[f], o.value)
        stats = NormalizationStats(fmin, fmax, np.full(n_features, 0.5), float(alpha_hours))
        normalized = [_normalize_episode(ep, stats) for ep in episodes]
        total = np.zeros(n_features)
        count = np.zeros(n_features)
        for ep in normalized:
            for o in ep.observations:
                total[o.feature_index] += o.value
                count[o.feature_index] += 1
        mean = np.where(count > 0, total / np.maximum(count, 1), 0.5)
        stats = replace(stats, global_mean=mean)
        return normalized, stats
    return [_normalize_episode(ep, stats) for ep in episodes], stats


def _normalize_episode(ep: Episode, stats: NormalizationStats) -> Episode:
    span = stats.feature_max - stats.feature_min
    obs = []
    for o in ep.observations:
        t = o.time / stats.alpha_hours
        if t >= 1.0:
            continue  # outside the observation window
        f = o.feature_index
        if span[f] == 0.0:
            v = 0.5
        else:
            v = min(max((o.value - stats.feature_min[f]) / span[f], 0.0), 1.0)
        obs.append(TsObservation(f, t, v))
    notes = tuple(replace(n, time=min(n.time / stats.alpha_hours, 1.0)) for n in ep.notes)
    return replace(ep, observations=tuple(obs), notes=notes)


def save_stats(path, stats: NormalizationStats) -> None:
    rec = {
        "min": stats.feature_min.tolist(),
        "max": stats.feature_max.tolist(),
        "global_mean": stats.global_mean.tolist(),
        "alpha_hours": stats.alpha_hours,
    }
    Path(path).write_text(json.dumps(rec) + "\n", encoding="utf-8")


def load_stats(path) -> NormalizationStats:
    try:
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
        return NormalizationStats(
            feature_min=np.asarray(rec["min"], dtype=np.float64),
            feature_max=np.asarray(rec["max"], dtype=np.float64),
            global_mean=np.asarray(rec["global_mean"], dtype=np.float64),
            alpha_hours=float(rec["alpha_hours"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed stats file {path}: {e}") from e


def truncate_notes(ep: Episode, k: int) -> Episode:
    """Keep only the k latest notes; timestamp ties favor later list position."""
    if k < 1:
        raise DataError(f"note budget must be >= 1, got {k}")
    notes = _sorted_notes(list(ep.notes))
    return replace(ep, notes=notes[-k:])


def toy_text_encode(text: str, d_t: int, seed: int = 0) -> np.ndarray:
    """Deterministic hashed bag-of-words: token counts in d_t buckets, L2-normalized."""
    if d_t < 8:
        raise DataError(f"text embedding width must be >= 8, got {d_t}")
    vec = np.zeros(d_t)
    salt = (int(seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    for token in text.lower().split():
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, salt=salt).digest()
        vec[int.from_bytes(digest, "little") % d_t] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def embed_notes(ep: Episode, d_t: int, seed: int = 0) -> Episode:
    """Replace raw-text payloads with toy-encoder embeddings; passes embeddings through."""
    notes = tuple(
        n if n.embedding is not None else NoteEvent(n.time, embedding=toy_text_encode(n.text, d_t, seed))
        for n in ep.notes
    )
    return replace(ep, notes=notes)


def group_by_feature(ep: Episode, n_features: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-feature (times, values) arrays, time-sorted with input order breaking ties."""
    buckets: list[list[TsObservation]] = [[] for _ in range(n_features)]
    for o in ep.observations:
        buckets[o.feature_index].append(o)
    out = []
    for obs in buckets:
        times = np.array([o.time for o in obs])
        values = np.array([o.value for o in obs])
        order = np.argsort(times, kind=_STABLE)
        out.append((times[order], values[order]))
    return out


def note_matrix(ep: Episode) -> tuple[np.ndarray, np.ndarray]:
    """(times[l], embeddings[l x d_t]) for an episode whose notes are all embedded."""
    if not ep.notes:
        raise DataError(f"episode {ep.episode_id} has no notes; every episode needs at least one")
    if any(n.embedding is None for n in ep.notes):
        raise DataError(f"episode {ep.episode_id} has un-encoded text notes")
    times = np.array([n.time for n in ep.notes])
    embs = np.stack([n.embedding for n in ep.notes])
    return times, embs


@dataclass(frozen=True)
class GenConfig:
    """Synthetic-dataset knobs; defaults sized for quick desk-scale experiments."""

    n_episodes: int
    n_features: int = 4
    text_dim: int = 16
    alpha_hours: float = 24.0
    sparsity: float = 0.3  # expected observations per feature per hour
    task: str = "ts_only"  # ts_only | notes_only | xor_fusion
    seed: int = 0
    obs_noise: float = 0.05
    drift_scale: float = 2.0
    n_waves: int = 3
    wave_amp: tuple[float, float] = (0.05, 0.25)
    wave_freq: tuple[float, float] = (0.5, 2.5)  # cycles per window
    note_rate: float = 1.5  # extra notes beyond the guaranteed first
    note_strength: float = 1.0
    note_noise: float = 0.3

    def __post_init__(self) -> None:
        if self.n_episodes < 1:
            raise DataError("n_episodes must be >= 1")
        if not 0.0 < self.sparsity <= 1.0:
            raise DataError(f"sparsity must be in (0,1], got {self.sparsity}")
        if self.task not in ("ts_only", "notes_only", "xor_fusion"):
            raise DataError(f"unknown task {self.task!r}")


_TAIL_START = 0.75  # label statistic averages the latent over the window's last quarter


def _tail_mean(drift: float, amps: np.ndarray, freqs: np.ndarray, phases: np.ndarray) -> float:
    """Exact mean of the latent signal over normalized time [0.75, 1]."""
    span = 1.0 - _TAIL_START
    total = drift * (1.0 + _TAIL_START) / 2.0
    w = 2.0 * np.pi * freqs
    total += float(np.sum(amps * (np.cos(w * _TAIL_START + phases) - np.cos(w + phases)) / (w * span)))
    return total


def _latent(u: np.ndarray, drift: float, amps, freqs, phases) -> np.ndarray:
    """Latent signal at normalized times u: linear drift plus sinusoid mixture."""
    return drift * u + np.sin(2.0 * np.pi * np.outer(u, freqs) + phases) @ amps


def generate_synthetic(config: GenConfig) -> list[Episode]:
    return generate_synthetic_with_trace(config)[0]


def generate_synthetic_with_trace(config: GenConfig) -> tuple[list[Episode], dict]:
    """Generate labeled episodes plus the latent quantities behind each label.

    The time-series label bit is the sign of feature 0's latent mean over the
    final quarter of the window; by symmetry of the latent construction that
    statistic's population median is exactly 0. The note label bit is an
    independent fair coin encoded as the sign of a fixed embedding direction.
    Task ts_only labels with the ts bit, notes_only with the note bit, and
    xor_fusion with their XOR, which leaves each single modality marginally
    uninformative.
    """
    cfg = config
    direction_rng = np.random.default_rng([cfg.seed, 7001])
    u = direction_rng.normal(size=cfg.text_dim)
    u /= np.linalg.norm(u)
    episodes: list[Episode] = []
    rows: list[dict] = []
    for i in range(cfg.n_episodes):
        rng = np.random.default_rng([cfg.seed, 1, i])
        drift = rng.normal(0.0, cfg.drift_scale, size=cfg.n_features)
        amps = rng.uniform(*cfg.wave_amp, size=(cfg.n_features, cfg.n_waves))
        freqs = rng.uniform(*cfg.wave_freq, size=(cfg.n_features, cfg.n_waves))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.n_features, cfg.n_waves))
        stat = _tail_mean(drift[0], amps[0], freqs[0], phases[0])
        ts_bit = int(stat > 0.0)
        note_bit = int(rng.random() < 0.5)

        obs: list[TsObservation] = []
        for f in range(cfg.n_features):
            count = rng.poisson(cfg.sparsity * cfg.alpha_hours)
            times = np.sort(rng.uniform(0.0, cfg.alpha_hours, size=count))
            values = _latent(times / cfg.alpha_hours, drift[f], amps[f], freqs[f], phases[f])
            values = values + rng.normal(0.0, cfg.obs_noise, size=count)
            obs.extend(TsObservation(f, float(t), float(v)) for t, v in zip(times, values))

        n_notes = 1 + rng.poisson(cfg.note_rate)
        note_times = np.sort(rng.uniform(0.0, cfg.alpha_hours, size=n_notes))
        sign = 2.0 * note_bit - 1.0
        embs = sign * cfg.note_strength * u + rng.normal(0.0, cfg.note_noise, size=(n_notes, cfg.text_dim))
        notes = tuple(NoteEvent(float(t), embedding=e.copy()) for t, e in zip(note_times, embs))

        if cfg.task == "ts_only":
            y = ts_bit
        elif cfg.task == "notes_only":
            y = note_bit
        else:
            y = ts_bit ^ note_bit
        episodes.append(
            Episode(
                episode_id=f"s{cfg.seed}-e{i:05d}",
                observations=tuple(obs),
                notes=notes,
                label=np.array([y], dtype=np.int64),
            )
        )
        rows.append(
            {
                "ts_bit": ts_bit,
                "note_bit": note_bit,
                "stat": stat,
                "drift": drift,
                "amps": amps,
                "freqs": freqs,
                "phases": phases,
            }
        )
    return episodes, {"direction": u, "episodes": rows, "config": cfg}
