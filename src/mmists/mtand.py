"""Attention interpolation branch: learned time embeddings plus multi-head
time attention that re-represents irregular series on the reference grid.

Both the numeric-series variant and the note-embedding variant share one
time-embedding bank (the same parameter tensors), while their projection
weights stay separate.

Only valid keys are embedded and scored: padding slots never enter the
computation. Each series (one feature of one episode for ``mtand_ts``, one
episode's notes for ``mtand_txt``) is a row of the padded keys and their mask,
and every grid query takes its softmax within each series. Each call is one
``segment_time_attention`` tape node, from the grid times to the mixed
values: the kernel embeds the grid queries and the keys with ``tensor``'s
Time2Vec helper, projects the queries, scores, normalizes and mixes. It
writes each grid row's head outputs already concatenated, so one ``linear``
projects them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .imputation import ReferenceGrid
from .tensor import ParamInit, Tensor, linear, segment_time_attention

__all__ = [
    "Time2VecBank",
    "MtandParams",
    "PaddedSeries",
    "pad_series",
    "init_time2vec_bank",
    "init_mtand_params",
    "mtand_ts",
    "mtand_txt",
]

@dataclass
class Time2VecBank:
    """V heads stacked row-wise; rows are the per-head omega/phi vectors."""

    omega: Tensor  # [V x d_v]
    phi: Tensor  # [V x d_v]

    @property
    def n_heads(self) -> int:
        return self.omega.shape[0]

    @property
    def d_v(self) -> int:
        return self.omega.shape[1]


@dataclass
class MtandParams:
    """One interpolation branch: shared bank plus per-head projections."""

    bank: Time2VecBank
    w_query: Tensor  # [V x d_v x d_v]
    w_key: Tensor  # [V x d_v x d_v]
    w_out: Tensor  # [(V*d_in) x d_h]
    b_out: Tensor  # [d_h]


@dataclass(frozen=True)
class PaddedSeries:
    """Per-feature observation series padded to one length L.

    ``times``, ``values`` and ``mask`` are [... x d_m x L]; False mask entries
    are padding and never receive attention weight.
    """

    times: np.ndarray
    values: np.ndarray
    mask: np.ndarray


def pad_series(episodes: Sequence[list[tuple[np.ndarray, np.ndarray]]]) -> PaddedSeries:
    """Stack each episode's per-feature (times, values) pairs into [G x d_m x L]
    arrays, L being the longest series in the group (at least 1)."""
    d_m = len(episodes[0])
    if any(len(series) != d_m for series in episodes):
        raise ValueError("episodes in one group must have the same number of features")
    length = max([1] + [t.size for series in episodes for t, _ in series])
    shape = (len(episodes), d_m, length)
    times, values, mask = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
    for b, series in enumerate(episodes):
        for j, (t, v) in enumerate(series):
            times[b, j, : t.size] = t
            values[b, j, : t.size] = v
            mask[b, j, : t.size] = True
    return PaddedSeries(times, values, mask)


def init_time2vec_bank(init: ParamInit, n_heads: int, d_v: int) -> Time2VecBank:
    """Periodic dims cover 1-10 cycles per unit window; linear dim starts as identity."""
    if d_v < 2:
        raise ValueError(f"time embedding needs >= 2 dims (linear + periodic), got {d_v}")
    shape = (n_heads, d_v)
    omega = init.tensor(shape, lambda r: r.uniform(2.0 * np.pi, 20.0 * np.pi, size=shape))
    phi = init.tensor(shape, lambda r: r.uniform(0.0, 2.0 * np.pi, size=shape))
    if init.fill:
        omega.data[:, 0], phi.data[:, 0] = 1.0, 0.0
    return Time2VecBank(omega=omega, phi=phi)


def init_mtand_params(
    init: ParamInit, bank: Time2VecBank, d_in: int, d_h: int
) -> MtandParams:
    v, d_v = bank.n_heads, bank.d_v
    return MtandParams(
        bank=bank,
        w_query=init.normal(d_v**-0.5, (v, d_v, d_v)),
        w_key=init.normal(d_v**-0.5, (v, d_v, d_v)),
        w_out=init.normal((v * d_in) ** -0.5, (v * d_in, d_h)),
        b_out=init.full(0.0, (d_h,)),
    )


def mtand_ts(series: PaddedSeries, grid: ReferenceGrid, params: MtandParams) -> Tensor:
    """Interpolate each feature's own observations onto the grid, all heads and
    features in one time attention, then project the concatenated head
    outputs.

    ``series`` [... x d_m x L] gives [... x alpha x d_h]; a feature without
    observations contributes a zero column.
    """
    bank = params.bank
    mixed = segment_time_attention(
        grid.points, params.w_query, params.w_key, bank.omega, bank.phi,
        series.times, series.mask, series.values[..., None],
    )  # [... x alpha x V*d_m]: one column per head and feature
    return linear(mixed, params.w_out, params.b_out)


def mtand_txt(
    note_times: np.ndarray,
    note_embeddings: np.ndarray,
    grid: ReferenceGrid,
    params: MtandParams,
    note_mask: np.ndarray | None = None,
) -> Tensor:
    """Interpolate note embeddings (all dims share the note times) onto the grid.

    note_times [... x N], note_embeddings [... x N x d_t] and note_mask
    [... x N] (real notes; default all) give [... x alpha x d_h]. Every
    episode needs at least one note.
    """
    note_times = np.asarray(note_times, dtype=np.float64)
    mask = np.ones(note_times.shape, dtype=bool) if note_mask is None else np.asarray(note_mask, dtype=bool)
    if note_times.size == 0 or not mask.any(axis=-1).all():
        raise ValueError("mtand_txt needs at least one note per episode")
    embeddings = np.asarray(note_embeddings, dtype=np.float64)
    bank = params.bank
    mixed = segment_time_attention(
        grid.points, params.w_query, params.w_key, bank.omega, bank.phi,
        note_times[..., None, :], mask[..., None, :], embeddings[..., None, :, :],
    )  # [... x alpha x V*d_t]: each episode's notes are one series of d_t channels
    return linear(mixed, params.w_out, params.b_out)
