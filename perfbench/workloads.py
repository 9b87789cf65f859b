"""The mmists benchmark workloads, their correctness gate and input descriptors.

Every call goes through the package's public API in the order the CLI uses:
``generate_synthetic`` -> ``save_episodes``/``load_episodes`` -> ``train`` ->
``save_checkpoint``, and ``load_checkpoint`` -> ``evaluate``/``predict``.
Functions are looked up on their modules at call time so the layer tracer's
replacements take effect. The run seed only chooses the generated episodes;
the model seed and the architecture are the ``RunConfig`` defaults.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mmists.data as data
import mmists.harness as harness
import mmists.metrics as metrics
import mmists.model as model
import mmists.tensor as tensor
from layer_trace import PER_LAYER_UNITS, Tracer, percentile_summary

MODEL_SEED = 0


@dataclass(frozen=True)
class Size:
    n_train: int
    n_val: int
    n_test: int
    epochs: int  # per timed train call; 0 builds the eval checkpoint from the initialization
    setup_reps: int


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # generator task
    modality: str
    trains: bool  # timed call is harness.train; otherwise load_checkpoint + evaluate
    sizes: dict[str, Size]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_fused", "xor_fusion", "fused", True,
            {"full": Size(128, 32, 32, 1, 7), "smoke": Size(64, 16, 16, 1, 2)},
        ),
        Workload(
            "eval_fused", "xor_fusion", "fused", False,
            {"full": Size(128, 32, 128, 0, 5), "smoke": Size(32, 16, 16, 0, 2)},
        ),
    )
}


@dataclass
class Inputs:
    config: model.RunConfig
    train: list
    val: list
    test: list
    workdir: Path
    checkpoint: harness.Checkpoint | None = None  # eval workload: the in-memory original

    @property
    def checkpoint_path(self) -> Path:
        return self.workdir / "model.ckpt"


@dataclass
class Call:
    seconds: float
    episodes: int  # trained (train calls) or scored (eval calls)
    forwarded: int  # episodes through model.forward, validation scoring included
    output: object  # loss trace or eval report: must repeat exactly
    checkpoint: harness.Checkpoint | None = None  # train calls; the runner keeps the latest


@dataclass
class Ledger:
    """Operations attempted and failed; an operation is one episode trained or scored."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # checks that could not run

    def fail(self, episodes: int, why: str) -> None:
        self.failed += episodes
        self.problems.append(why)
        print(f"perfbench: {why}", file=sys.stderr)

    def note(self, why: str) -> None:
        self.notes.append(why)
        print(f"perfbench: {why}", file=sys.stderr)


def config_for(w: Workload, size: Size) -> model.RunConfig:
    return model.RunConfig(seed=MODEL_SEED, modality=w.modality, ts_embed="utde", epochs=size.epochs)


def setup(w: Workload, size: Size, seed: int, workdir: Path) -> Inputs:
    """Generate the splits, round-trip them through JSONL, and for the eval
    workload train an epochs=0 checkpoint and write it."""
    config = config_for(w, size)
    total = size.n_train + size.n_val + size.n_test
    episodes = data.generate_synthetic(data.GenConfig(n_episodes=total, task=w.task, seed=seed))
    schema = data.TaskSchema(
        n_features=config.n_features, n_classes=config.n_classes, text_dim=config.text_dim
    )
    bounds = {"train": (0, size.n_train), "val": (size.n_train, size.n_train + size.n_val)}
    bounds["test"] = (size.n_train + size.n_val, total)
    splits = {}
    for name, (lo, hi) in bounds.items():
        path = workdir / f"{name}.jsonl"
        data.save_episodes(path, episodes[lo:hi])
        splits[name] = data.load_episodes(path, schema)
    inputs = Inputs(config, splits["train"], splits["val"], splits["test"], workdir)
    if not w.trains:
        inputs.checkpoint = harness.train(config, inputs.train, inputs.val)
        harness.save_checkpoint(inputs.checkpoint_path, inputs.checkpoint)
    return inputs


def train_forwarded(inputs: Inputs) -> int:
    """Episodes one train call forwards: every epoch, plus validation after each
    epoch and once for the initialization."""
    epochs = inputs.config.resolved_epochs()
    return len(inputs.train) * epochs + len(inputs.val) * (epochs + 1)


def train_call(inputs: Inputs) -> Call:
    losses: list[float] = []
    start = time.perf_counter()
    ckpt = harness.train(inputs.config, inputs.train, inputs.val, loss_trace=losses)
    seconds = time.perf_counter() - start
    harness.save_checkpoint(inputs.checkpoint_path, ckpt)
    trained = len(inputs.train) * inputs.config.resolved_epochs()
    return Call(seconds, trained, train_forwarded(inputs), losses, ckpt)


def eval_call(inputs: Inputs) -> Call:
    start = time.perf_counter()
    ckpt = harness.load_checkpoint(inputs.checkpoint_path)
    report = harness.evaluate(ckpt, inputs.test)
    seconds = time.perf_counter() - start
    n = len(inputs.test)
    return Call(seconds, n, n, report)


def check_call(call: Call, reference: Call, ledger: Ledger, what: str) -> None:
    ledger.attempted += call.episodes
    if isinstance(call.output, list) and not all(math.isfinite(x) for x in call.output):
        ledger.fail(call.episodes, f"{what}: non-finite batch loss")
    elif call.output != reference.output:
        ledger.fail(call.episodes, f"{what}: output differs from the first call's")


SCORE_TOLERANCE = 1e-9  # batched and per-episode forward passes may differ in summation order


def forward_scores(ckpt: harness.Checkpoint, episodes: list) -> np.ndarray:
    """Scores recomputed one episode at a time through the public forward path."""
    params = ckpt.build_params()
    normed, _ = data.normalize(episodes, stats=ckpt.stats)
    logits = [
        model.forward(model.prepare_episode(ep, ckpt.config, ckpt.stats), params, ckpt.config).data
        for ep in normed
    ]
    return 1.0 / (1.0 + np.exp(-np.array(logits)))


def gate(inputs: Inputs, ckpt: harness.Checkpoint, ledger: Ledger) -> float:
    """Correctness checks on the test split; returns the predict scores' mean BCE.

    Scores are finite and in [0,1]; evaluate twice gives identical reports;
    save -> load -> evaluate equals the in-memory checkpoint's report; the
    report recomputed from predict's scores equals evaluate's; and predict's
    scores match a per-episode forward pass, which the rank-based report
    alone cannot show.
    """
    test = inputs.test
    n = len(test)
    ledger.attempted += 5 * n
    path = inputs.workdir / "gate.ckpt"
    try:
        harness.save_checkpoint(path, ckpt)
        loaded = harness.load_checkpoint(path)
        first = harness.evaluate(ckpt, test)
        second = harness.evaluate(ckpt, test)
        reloaded = harness.evaluate(loaded, test)
        rows = harness.predict(loaded, test)
    except Exception:  # any raised call fails the gate; keep going to report it
        traceback.print_exc()
        ledger.fail(5 * n, "gate: a public call raised")
        return math.nan
    scores = np.array([s for _, s in rows], dtype=np.float64)
    labels = np.array([ep.label for ep in test], dtype=np.float64)
    valid = np.all(np.isfinite(scores) & (scores >= 0.0) & (scores <= 1.0), axis=1)
    if not valid.all():
        ledger.fail(int((~valid).sum()), "gate: scores not finite or outside [0,1]")
    if [i for i, _ in rows] != [ep.episode_id for ep in test]:
        ledger.fail(n, "gate: predict returned other ids or order than its input")
    if second != first:
        ledger.fail(n, "gate: evaluate run twice gave different reports")
    if reloaded != first:
        ledger.fail(n, "gate: save -> load -> evaluate differs from the in-memory checkpoint")
    if valid.all() and metrics.evaluate_scores(scores, labels, task=inputs.config.task) != reloaded:
        ledger.fail(n, "gate: predict scores disagree with evaluate")
    try:
        reference = forward_scores(loaded, test)
    except (AttributeError, TypeError) as e:  # a public name moved; the other checks still hold
        ledger.note(f"gate: per-episode forward check unavailable: {e!r}")
    else:
        if reference.shape != scores.shape or not np.all(np.abs(scores - reference) <= SCORE_TOLERANCE):
            ledger.fail(n, "gate: predict scores differ from the per-episode forward pass")
    p = np.clip(scores, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def describe(w: Workload, inputs: Inputs) -> dict:
    """Measured properties of the episodes the timed call processes."""
    config = inputs.config
    episodes = inputs.train if w.trains else inputs.test
    b = config.batch_size
    obs = np.array(
        [
            np.bincount([o.feature_index for o in ep.observations], minlength=config.n_features)
            for ep in episodes
        ]
    )
    notes = np.array([len(ep.notes) for ep in episodes])
    kept = np.minimum(notes, config.note_budget)

    def padding_share(counts: np.ndarray) -> float:
        """Share of a [batch x ... x longest] padded layout that would be padding."""
        real = padded = 0
        for start in range(0, len(counts), b):
            block = counts[start : start + b]
            real += int(block.sum())
            padded += block.size * int(block.max())
        return 1.0 - real / padded if padded else 0.0

    out = {
        "episodes": len(episodes),
        "observations_per_feature": {
            "mean": float(obs.mean()), "median": float(np.median(obs)), "max": int(obs.max()),
        },
        "notes_per_episode": {
            "mean": float(notes.mean()), "median": float(np.median(notes)), "max": int(notes.max()),
            "truncated_share": float(np.mean(notes > config.note_budget)),
        },
        f"observation_padding_share_at_batch_{b}": padding_share(obs),
        f"note_padding_share_at_batch_{b}": padding_share(kept),
    }
    try:
        params = model.init_model(config)
        flat = params.flat()
        normed, stats = data.normalize(
            inputs.train, alpha_hours=config.alpha_hours, n_features=config.n_features
        )
        prep = model.prepare_episode(normed[0], config, stats)
        with tensor.Tape() as tape:
            loss = tensor.bce_with_logits(model.forward(prep, params, config), prep.label)
            tape.backward(loss)
        instantiated = sum(t.data.size for t in flat.values())
        used = sum(t.data.size for t in flat.values() if tape.grad_or_none(t) is not None)
        out["parameters"] = {
            "instantiated": instantiated,
            "receive_gradient": used,
            "unused_share": 1.0 - used / instantiated,
        }
    except (AttributeError, TypeError) as e:  # a public name moved; describe what we can
        out["parameters"] = {"unavailable": repr(e)}
    return out


END_TO_END_UNITS = {"episodes_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "loss": "nats"}


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    detail: dict


def _closed_loop(seconds: float, step: Callable[[], bool]) -> None:
    """One client: the next step starts when the previous one returns. The
    loop makes at least one step and ends at the first failed one, or when
    another step as long as the last would end past ``seconds``."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if not step():
            return
        now = time.perf_counter()
        if 2 * now - began - start > seconds:
            return


class _Runner:
    """Runs one workload's calls and books every episode into the ledger."""

    def __init__(self, w: Workload, size: Size) -> None:
        self.w = w
        self.size = size
        self.call = train_call if w.trains else eval_call
        self.episodes_per_call = size.n_train * size.epochs if w.trains else size.n_test
        self.ledger = Ledger()
        self.reference: Call | None = None  # the untimed warm-up call; later outputs must equal it
        self.checkpoint: harness.Checkpoint | None = None  # the latest trained model, gated at the end

    def attempt(self, inputs: Inputs, calls: list[Call], what: str) -> bool:
        try:
            c = self.call(inputs)
        except Exception:  # a raised public call is a failed operation, not a crash
            traceback.print_exc()
            self.ledger.attempted += self.episodes_per_call
            self.ledger.fail(self.episodes_per_call, f"{what}: raised")
            return False
        check_call(c, self.reference or c, self.ledger, what)
        # hold one trained model, so RSS does not grow with calls
        self.checkpoint, c.checkpoint = c.checkpoint or self.checkpoint, None
        calls.append(c)
        return True

    def warm_up(self, inputs: Inputs) -> bool:
        """One untimed call before timing: lazy set-up and first-touch costs
        stay out of the timed calls, and its output is their reference."""
        first: list[Call] = []
        if not self.attempt(inputs, first, "warm-up call"):
            return False
        self.reference = first[0]
        return True

    def gate(self, inputs: Inputs) -> float:
        ckpt = self.checkpoint if self.w.trains else inputs.checkpoint
        return gate(inputs, ckpt, self.ledger) if ckpt is not None else math.nan


def _run_untraced(s: _Runner, seed: int, seconds: float, workdir: Path, import_s: float, detail: dict):
    setup_s = []
    for _ in range(s.size.setup_reps):
        start = time.perf_counter()
        inputs = setup(s.w, s.size, seed, workdir)
        setup_s.append(time.perf_counter() - start)
    calls: list[Call] = []
    if s.warm_up(inputs):
        _closed_loop(seconds, lambda: s.attempt(inputs, calls, "timed call"))
    test_bce = s.gate(inputs)
    rates = [c.episodes / c.seconds for c in calls]
    detail["samples"] = {"setup_reps": len(setup_s), "warm_up_calls": 1, "timed_calls": len(calls)}
    detail["episodes_per_s_per_call"] = {**percentile_summary(rates), "values": rates}
    detail["setup"] = {"import_s": import_s, "per_rep_s": setup_s}
    values = {
        "episodes_per_s": statistics.median(rates) if rates else math.nan,
        "setup_s": import_s + statistics.median(setup_s),
    }
    return inputs, calls, values, test_bce


def _run_traced(s: _Runner, seed: int, seconds: float, workdir: Path, detail: dict):
    """Alternate untraced and traced calls on the same inputs: the traced output
    must equal the untraced one exactly, and their time ratio is the overhead.
    Setup and the correctness gate run traced too, so the I/O layers show."""
    tracer = Tracer()
    with tracer:
        inputs = setup(s.w, s.size, seed, workdir)
    plain: list[Call] = []
    traced: list[Call] = []
    mismatches = 0

    def step() -> bool:
        nonlocal mismatches
        if not s.attempt(inputs, plain, "untraced call"):
            return False
        failed = s.ledger.failed
        with tracer:
            ok = s.attempt(inputs, traced, "traced call")
        mismatches += s.ledger.failed != failed
        return ok

    if s.warm_up(inputs):
        _closed_loop(seconds, step)
    with tracer:
        test_bce = s.gate(inputs)
    trained = sum(c.episodes for c in traced) if s.w.trains else 0
    # the gate scores the test split five times; the eval workload's setup
    # scores the validation split once
    forwarded = sum(c.forwarded for c in traced) + 5 * len(inputs.test)
    if not s.w.trains:
        forwarded += len(inputs.val)
    values = tracer.per_layer_metrics(trained, forwarded)
    # each traced call runs right after its untraced twin, so machine-speed drift cancels in the ratio
    ratios = [t.seconds / p.seconds for p, t in zip(plain, traced)]
    values["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0) if ratios else math.nan
    detail["samples"] = {
        "setup_reps": 1, "warm_up_calls": 1, "untraced_calls": len(plain), "traced_calls": len(traced),
    }
    detail["trace"] = {
        "absent": tracer.absent,
        "trained_episodes": trained,
        "forwarded_episodes": forwarded,
        "outputs_identical_to_untraced": bool(traced) and mismatches == 0,
        "spans": tracer.span_detail(),
    }
    return inputs, traced, values, test_bce


def run(w: Workload, size_name: str, seed: int, seconds: float, traced: bool,
        workdir: Path, import_s: float) -> Outcome:
    s = _Runner(w, w.sizes[size_name])
    detail: dict = {"workload": w.name, "size": size_name, "seed": seed, "traced": traced}
    if traced:
        inputs, calls, values, test_bce = _run_traced(s, seed, seconds, workdir, detail)
        units = PER_LAYER_UNITS
    else:
        inputs, calls, values, test_bce = _run_untraced(s, seed, seconds, workdir, import_s, detail)
        units = END_TO_END_UNITS

    last = calls[-1] if calls else s.reference
    if w.trains and last is not None:
        # mean batch loss of the last epoch
        losses = last.output
        per_epoch = math.ceil(len(inputs.train) / inputs.config.batch_size)
        values["loss"] = float(np.mean(losses[-per_epoch:]))
        detail["loss_trace_sha256"] = hashlib.sha256(np.asarray(losses).tobytes()).hexdigest()
    else:
        values["loss"] = test_bce
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["test_bce"] = test_bce
    detail["descriptors"] = describe(w, inputs)
    ledger = s.ledger
    detail["error_rate"] = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    detail["problems"] = ledger.problems
    detail["notes"] = ledger.notes

    out = {name: (values[name], unit) for name, unit in units.items()}
    correct = ledger.failed == 0 and ledger.attempted > 0 and all(math.isfinite(v) for v, _ in out.values())
    return Outcome(correct, max(ledger.attempted, 1), ledger.failed, out, detail)
