"""Evaluation metrics with explicit tie handling, plus the per-split report.

AUROC is the Mann-Whitney concordance probability (ties count one half);
AUPR is average precision with equal scores collapsed into one PR step, no
trapezoid interpolation. Multi-label runs macro-average per-class values,
skipping classes where a metric is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UndefinedMetricError",
    "EvalReport",
    "f1_binary",
    "macro_f1",
    "auroc",
    "aupr",
    "evaluate_scores",
    "report_to_line",
]


class UndefinedMetricError(ValueError):
    """The metric has no value on this input (e.g. single-class labels)."""


THRESHOLD = 0.5  # a score at or above it predicts the positive class


def _check_pair(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise ValueError(f"scores and labels disagree in length: {s.shape} vs {y.shape}")
    if not np.isfinite(s).all():
        # NaN compares unequal to itself and ranks nowhere
        raise ValueError(f"{int(np.sum(~np.isfinite(s)))} non-finite scores")
    return s, y


def f1_binary(scores, labels) -> float:
    """F1 of (score >= THRESHOLD) predictions; 0 when precision+recall is 0
    or the labels contain no positives."""
    return _prf(scores, labels)["f1"]


def _prf(scores, labels) -> dict:
    s, y = _check_pair(scores, labels)
    pred = s >= THRESHOLD
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "positives": tp + fn}


def macro_f1(scores, labels) -> float:
    """Unweighted mean of per-class binary F1 over the label columns."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 2 or s.shape[1] < 2:
        raise ValueError(f"macro F1 needs [n x L>=2] scores, got shape {s.shape}")
    if s.shape != y.shape:
        raise ValueError(f"scores and labels disagree in shape: {s.shape} vs {y.shape}")
    return float(np.mean([f1_binary(s[:, c], y[:, c]) for c in range(s.shape[1])]))


def auroc(scores, labels) -> float:
    """P(random positive outscores random negative), ties counted one half."""
    s, y = _check_pair(scores, labels)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    # average ranks (1-based): a tie group at sorted positions start..end-1
    # shares the mean of ranks start+1..end
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    ranks = (0.5 * (end - counts + 1 + end))[group]
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def aupr(scores, labels) -> float:
    """Average precision over descending-score prefixes, equal scores grouped."""
    s, y = _check_pair(scores, labels)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise UndefinedMetricError("AUPR needs at least one positive")
    order = np.argsort(-s, kind="stable")
    y_sorted = (y[order] == 1).astype(np.float64)
    s_sorted = s[order]
    cum_tp = np.cumsum(y_sorted)
    counts = np.arange(1, len(s) + 1, dtype=np.float64)
    # keep only the last index of each tie group (the full group is one PR step)
    is_group_end = np.ones(len(s), dtype=bool)
    is_group_end[:-1] = s_sorted[:-1] != s_sorted[1:]
    tp = cum_tp[is_group_end]
    total = counts[is_group_end]
    precision = tp / total
    recall_steps = np.diff(np.concatenate([[0.0], tp])) / n_pos
    return float(np.sum(recall_steps * precision))


@dataclass
class EvalReport:
    """Per-split metric bundle; macro_f1 and per_class appear for multi-label runs."""

    f1: float
    aupr: float
    auroc: float
    threshold: float
    n_examples: int
    macro_f1: float | None = None
    per_class: list[dict] | None = None


def evaluate_scores(scores, labels, task: str) -> EvalReport:
    """Score matrix [n x L] + labels -> report. Binary tasks use column 0;
    multi-label tasks macro-average, skipping undefined classes."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim == 1:
        s = s.reshape(-1, 1)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    if s.shape != y.shape:
        raise ValueError(f"scores and labels disagree in shape: {s.shape} vs {y.shape}")
    if s.shape[0] == 0:
        raise ValueError("cannot evaluate zero examples")
    if task == "binary":
        return EvalReport(
            f1=f1_binary(s[:, 0], y[:, 0]),
            aupr=aupr(s[:, 0], y[:, 0]),
            auroc=auroc(s[:, 0], y[:, 0]),
            threshold=THRESHOLD,
            n_examples=s.shape[0],
        )
    if task != "multilabel":
        raise ValueError(f"unknown task {task!r}")
    per_class = [_prf(s[:, c], y[:, c]) for c in range(s.shape[1])]
    auroc_vals = []
    aupr_vals = []
    for c in range(s.shape[1]):
        try:
            auroc_vals.append(auroc(s[:, c], y[:, c]))
        except UndefinedMetricError:
            pass
        try:
            aupr_vals.append(aupr(s[:, c], y[:, c]))
        except UndefinedMetricError:
            pass
    if not auroc_vals or not aupr_vals:
        raise UndefinedMetricError("no class had both labels present")
    # micro F1 over all (example, class) decisions
    micro = f1_binary(s.reshape(-1), y.reshape(-1))
    return EvalReport(
        f1=micro,
        aupr=float(np.mean(aupr_vals)),
        auroc=float(np.mean(auroc_vals)),
        threshold=THRESHOLD,
        n_examples=s.shape[0],
        macro_f1=macro_f1(s, y),
        per_class=per_class,
    )


def report_to_line(report: EvalReport, prefix: str = "") -> str:
    """Flat key=value record for run logs; float repr keeps it bit-stable."""
    parts = []
    if prefix:
        parts.append(f"split={prefix}")
    parts.append(f"f1={report.f1!r}")
    if report.macro_f1 is not None:
        parts.append(f"macro_f1={report.macro_f1!r}")
    parts.append(f"aupr={report.aupr!r}")
    parts.append(f"auroc={report.auroc!r}")
    parts.append(f"threshold={report.threshold!r}")
    parts.append(f"n_examples={report.n_examples}")
    return " ".join(parts)
