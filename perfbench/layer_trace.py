"""Outside-in layer tracer for the mmists benchmark.

Spans are recorded by replacing public mmists functions in the module where
their callers look them up (``mmists.model.mtand_ts`` is what
``mmists.model.ts_embedding`` calls), and restoring them afterwards. Nothing
inside the package changes. Spans nest through one stack: a span's self time
is its duration minus the durations of the spans opened inside it, and every
op recorded on a tape (``Tape.record``) is counted against the innermost open
span. A public name that no longer exists is listed as absent instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

# (span name, module, attribute where the caller looks it up, per-call count)
# The count hook sees (args, kwargs, result) and returns the number of items
# the call handled: episodes for list-taking functions, scalars for Adam,
# bytes for the checkpoint writer.
SPANS: tuple[tuple[str, str, str, str | None], ...] = (
    ("harness.train", "mmists.harness", "train", None),
    ("model.forward", "mmists.harness", "forward", None),
    ("model.init_model", "mmists.harness", "init_model", None),
    ("model.prepare_episode", "mmists.harness", "prepare_episode", None),
    ("data.normalize", "mmists.harness", "normalize", "first_arg_len"),
    ("tensor.adam_step", "mmists.harness", "adam_step", "param_scalars"),
    ("metrics.evaluate_scores", "mmists.harness", "evaluate_scores", None),
    ("harness.save_checkpoint", "mmists.harness", "save_checkpoint", "file_bytes"),
    ("harness.load_checkpoint", "mmists.harness", "load_checkpoint", None),
    ("data.load_episodes", "mmists.data", "load_episodes", "result_len"),
    ("mtand.mtand_ts", "mmists.model", "mtand_ts", None),
    ("mtand.mtand_txt", "mmists.model", "mtand_txt", None),
    ("imputation.conv_embed", "mmists.model", "conv_embed", None),
    ("gating.compute_gate", "mmists.model", "compute_gate", None),
    ("gating.utde_embed", "mmists.model", "utde_embed", None),
    ("fusion.classify", "mmists.model", "classify", None),
    ("fusion.classify", "mmists.model", "classify_single", None),
    ("fusion.self_attend", "mmists.fusion", "self_attend", None),
    ("fusion.cross_attend", "mmists.fusion", "cross_attend", None),
    ("fusion.ffn_block", "mmists.fusion", "ffn_block", None),
    ("tensor.backward", "mmists.tensor", "Tape.backward", None),
)
RECORD_TARGET = ("mmists.tensor", "Tape.record")

# Forward-path layers: time per episode forwarded, nodes per episode trained.
FORWARD_LAYERS = (
    "fusion.self_attend",
    "fusion.cross_attend",
    "fusion.ffn_block",
    "fusion.classify",
    "mtand.mtand_ts",
    "mtand.mtand_txt",
    "imputation.conv_embed",
    "gating.compute_gate",
    "gating.utde_embed",
)

PER_LAYER_UNITS: dict[str, str] = {
    "tensor.backward.ms_per_episode": "ms",
    "tensor.backward.calls_per_episode": "count",
    "tensor.tape_nodes_per_episode": "count",
    "tensor.adam_step.ms_per_step": "ms",
    "tensor.adam_step.params": "count",
    "harness.train.self_ms_per_episode": "ms",
    "model.forward.ms_per_episode": "ms",
    **{
        f"{layer}.{what}": unit
        for layer in FORWARD_LAYERS
        for what, unit in (("ms_per_episode", "ms"), ("nodes_per_episode", "count"))
    },
    "model.prepare_episode.ms_per_episode": "ms",
    "data.normalize.ms_per_episode": "ms",
    "model.init_model.ms_per_call": "ms",
    "metrics.evaluate_scores.ms": "ms",
    "data.load_episodes.ms_per_episode": "ms",
    "harness.save_checkpoint.ms": "ms",
    "harness.load_checkpoint.ms": "ms",
    "harness.checkpoint_bytes": "bytes",
    "trace.overhead_pct": "%",
}

INCLUSIVE_SPANS = {"model.forward"}  # reported with their children's time included

_PERCENTILES = (99.9, 99.0, 90.0)


def _count(kind: str | None, args, kwargs, result) -> int:
    if kind == "first_arg_len":
        return len(args[0])
    if kind == "result_len":
        return len(result)
    if kind == "param_scalars":
        return sum(t.data.size for t in args[0].values())
    if kind == "file_bytes":
        return os.path.getsize(args[0])
    return 0


@dataclass
class SpanStats:
    calls: int = 0
    self_ms: float = 0.0
    inclusive_ms: float = 0.0
    nodes: int = 0
    items: int = 0
    last_items: int = 0
    per_call_ms: list[float] = field(default_factory=list)


class _Frame:
    __slots__ = ("child_ms", "nodes")

    def __init__(self) -> None:
        self.child_ms = 0.0
        self.nodes = 0


def _resolve(module: str, attr: str):
    """(owner object, attribute name, current value) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


def percentile_summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it, and n."""
    n = len(samples)
    out: dict = {"n": n, "median": statistics.median(samples) if samples else None}
    ordered = sorted(samples)
    for p in _PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = ordered[max(math.ceil(p / 100.0 * n) - 1, 0)]
            break
    return out


class Tracer:
    """Patches the traced names while active; accumulates stats across activations."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.tape_nodes = 0
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module, attr, kind in SPANS:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, attr_name, original = found
            self.stats.setdefault(name, SpanStats())
            wrapper = self._span(name, original, kind)
            self._patches.append((owner, attr_name, original, wrapper))
        found = _resolve(*RECORD_TARGET)
        if found is None:
            self.absent.append(".".join(RECORD_TARGET))
        else:
            owner, attr_name, original = found
            self._patches.append((owner, attr_name, original, self._counting(original)))

    def _span(self, name: str, fn: Callable, kind: str | None) -> Callable:
        stack = self._stack
        stats = self.stats[name]
        clock = time.perf_counter
        inclusive = name in INCLUSIVE_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = (clock() - start) * 1e3
                stack.pop()
                if stack:
                    stack[-1].child_ms += elapsed
                own = elapsed - frame.child_ms
                stats.calls += 1
                stats.self_ms += own
                stats.inclusive_ms += elapsed
                stats.nodes += frame.nodes
                stats.per_call_ms.append(elapsed if inclusive else own)
            if kind is not None:
                stats.last_items = _count(kind, args, kwargs, result)
                stats.items += stats.last_items
            return result

        return wrapper

    def _counting(self, fn: Callable) -> Callable:
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def record(*args, **kwargs):
            tracer.tape_nodes += 1
            if stack:
                stack[-1].nodes += 1
            return fn(*args, **kwargs)

        return record

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._stack.clear()

    # ------------------------------------------------------------ reporting

    def _get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def per_layer_metrics(self, trained: int, forwarded: int) -> dict[str, float]:
        """Metric name -> value; a layer no episode passed through reads 0.

        ``trained`` counts episodes that went through forward, backward and
        Adam; ``forwarded`` counts every episode that went through the model's
        forward pass (training, in-training validation, and evaluation).
        """

        def per(total: float, n: int) -> float:
            return total / n if n else 0.0

        def per_call(s: SpanStats) -> float:
            return per(s.self_ms, s.calls)

        out: dict[str, float] = {}
        backward = self._get("tensor.backward")
        out["tensor.backward.ms_per_episode"] = per(backward.self_ms, trained)
        out["tensor.backward.calls_per_episode"] = per(backward.calls, trained)
        out["tensor.tape_nodes_per_episode"] = per(self.tape_nodes, trained)
        adam = self._get("tensor.adam_step")
        out["tensor.adam_step.ms_per_step"] = per_call(adam)
        out["tensor.adam_step.params"] = float(adam.last_items)
        out["harness.train.self_ms_per_episode"] = per(self._get("harness.train").self_ms, trained)
        out["model.forward.ms_per_episode"] = per(self._get("model.forward").inclusive_ms, forwarded)
        for layer in FORWARD_LAYERS:
            s = self._get(layer)
            out[f"{layer}.ms_per_episode"] = per(s.self_ms, forwarded)
            out[f"{layer}.nodes_per_episode"] = per(s.nodes, trained)
        out["model.prepare_episode.ms_per_episode"] = per_call(self._get("model.prepare_episode"))
        norm = self._get("data.normalize")
        out["data.normalize.ms_per_episode"] = per(norm.self_ms, norm.items)
        out["model.init_model.ms_per_call"] = per_call(self._get("model.init_model"))
        out["metrics.evaluate_scores.ms"] = per_call(self._get("metrics.evaluate_scores"))
        load = self._get("data.load_episodes")
        out["data.load_episodes.ms_per_episode"] = per(load.self_ms, load.items)
        save = self._get("harness.save_checkpoint")
        out["harness.save_checkpoint.ms"] = per_call(save)
        out["harness.load_checkpoint.ms"] = per_call(self._get("harness.load_checkpoint"))
        out["harness.checkpoint_bytes"] = float(save.last_items)
        return out

    def span_detail(self) -> dict:
        """Per span: calls, totals, tape nodes and the per-call distribution (ms)."""
        return {
            name: {
                "calls": s.calls,
                "self_ms": s.self_ms,
                "inclusive_ms": s.inclusive_ms,
                "nodes": s.nodes,
                "items": s.items,
                "per_call_ms": percentile_summary(s.per_call_ms),
            }
            for name, s in sorted(self.stats.items())
        }
