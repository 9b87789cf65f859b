"""Discretization branch: bin irregular observations onto the grid, forward-fill,
and embed with a causal 1-D convolution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, NormalizationStats
from .tensor import Tensor, causal_conv1d

__all__ = ["ReferenceGrid", "DiscretizedSeries", "bin_series", "impute", "conv_embed"]


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


def bin_series(
    series: list[tuple[np.ndarray, np.ndarray]], grid: ReferenceGrid, episode_id: str
) -> DiscretizedSeries:
    """Bin the per-feature (times, values) series that ``group_by_feature``
    gives into half-open intervals [b/alpha, (b+1)/alpha).

    Each (feature, bin) keeps its latest observation; identical timestamps
    resolve to the later input-list entry. Empty bins are flagged missing.
    """
    alpha = grid.n_points
    values = np.zeros((alpha, len(series)))
    mask = np.zeros((alpha, len(series)), dtype=bool)
    for f, (times, vals) in enumerate(series):
        # times are sorted with input order breaking ties, so the last write wins
        for t, v in zip(times.tolist(), vals.tolist()):
            if not 0.0 <= t < 1.0:
                raise DataError(f"episode {episode_id}: observation time {t} outside the window")
            b = int(t * alpha)
            values[b, f] = v
            mask[b, f] = True
    return DiscretizedSeries(values=values, observed_mask=mask)


def impute(series: DiscretizedSeries, stats: NormalizationStats) -> Tensor:
    """Forward-fill each feature; leading gaps take the feature's global mean."""
    values, mask = series.values, series.observed_mask
    alpha, d_m = values.shape
    if stats.global_mean.shape[0] != d_m:
        raise DataError(
            f"stats cover {stats.global_mean.shape[0]} features, series has {d_m}"
        )
    # each bin's source row: 1 + its latest observed bin, or row 0, the global mean
    source = np.where(mask, np.arange(1, alpha + 1)[:, None], 0)
    np.maximum.accumulate(source, axis=0, out=source)
    return Tensor(np.vstack((stats.global_mean, values))[source, np.arange(d_m)])


def conv_embed(values: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Causal 1-D convolution mapping [... x alpha x d_m] to [... x alpha x d_h]; linear, no activation."""
    return causal_conv1d(values, kernel, bias)
