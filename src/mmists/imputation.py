"""Discretization branch: bin irregular observations onto the grid, forward-fill,
and embed with a causal 1-D convolution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Episode, NormalizationStats, group_by_feature
from .tensor import Tensor, causal_conv1d

__all__ = ["ReferenceGrid", "DiscretizedSeries", "discretize", "impute", "conv_embed"]


@dataclass(frozen=True)
class ReferenceGrid:
    """The alpha regular query points [0, 1/alpha, ..., (alpha-1)/alpha] in normalized time."""

    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise DataError(f"grid needs >= 1 points, got {self.n_points}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n_points) / self.n_points


@dataclass(frozen=True)
class DiscretizedSeries:
    """Binned values plus a mask marking which entries came from real observations."""

    values: np.ndarray  # [alpha x d_m]
    observed_mask: np.ndarray  # bool [alpha x d_m]


def discretize(ep: Episode, grid: ReferenceGrid, n_features: int) -> DiscretizedSeries:
    """Bin observations into half-open intervals [b/alpha, (b+1)/alpha).

    Each (feature, bin) keeps its latest observation; identical timestamps
    resolve to the later input-list entry. Empty bins are flagged missing.
    """
    alpha = grid.n_points
    values = np.zeros((alpha, n_features))
    mask = np.zeros((alpha, n_features), dtype=bool)
    for f, (times, vals) in enumerate(group_by_feature(ep, n_features)):
        if times.size and times.max() >= 1.0:
            raise DataError(
                f"episode {ep.episode_id}: observation time {times.max()} outside the window"
            )
        # times are sorted with input order breaking ties, so the last write wins
        for t, v in zip(times, vals):
            b = int(t * alpha)
            values[b, f] = v
            mask[b, f] = True
    return DiscretizedSeries(values=values, observed_mask=mask)


def impute(series: DiscretizedSeries, stats: NormalizationStats) -> Tensor:
    """Forward-fill each feature; leading gaps take the feature's global mean."""
    values = series.values.copy()
    mask = series.observed_mask
    alpha, d_m = values.shape
    if stats.global_mean.shape[0] != d_m:
        raise DataError(
            f"stats cover {stats.global_mean.shape[0]} features, series has {d_m}"
        )
    filled = np.where(mask[0], values[0], stats.global_mean)
    values[0] = filled
    for b in range(1, alpha):
        filled = np.where(mask[b], values[b], filled)
        values[b] = filled
    return Tensor(values)


def conv_embed(values: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Causal 1-D convolution mapping [... x alpha x d_m] to [... x alpha x d_h]; linear, no activation."""
    return causal_conv1d(values, kernel, bias)
