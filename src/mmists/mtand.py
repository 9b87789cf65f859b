"""Attention interpolation branch: learned time embeddings plus multi-head
time attention that re-represents irregular series on the reference grid.

Both the numeric-series variant and the note-embedding variant share one
time-embedding bank (the same parameter tensors), while their projection
weights stay separate.

Only valid keys are embedded and scored: padding slots never enter the
computation. Each series is one segment of the valid keys (one feature of one
episode for ``mtand_ts``, one episode's notes for ``mtand_txt``), and every
grid query takes its softmax within each segment, all in one
``segment_time_attention`` tape node. A fused forward embeds the grid points
once and hands that embedding to both calls, so the two streams' bank
gradients meet on one node.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .imputation import ReferenceGrid
from .tensor import (
    Tensor,
    concat,
    linear,
    masked_softmax,
    matmul,
    narrow,
    reshape,
    segment_time_attention,
    sin,
    swapaxes,
    time_embedding,
    transpose,
)

__all__ = [
    "Time2VecParams",
    "Time2VecBank",
    "MtandParams",
    "PaddedSeries",
    "pad_series",
    "init_time2vec_bank",
    "init_mtand_params",
    "bank_head",
    "time2vec",
    "time2vec_heads",
    "time_attention",
    "mtand_ts",
    "mtand_txt",
]

@dataclass
class Time2VecParams:
    """One time-embedding head: dimension 0 is linear in time, the rest sinusoidal."""

    omega: Tensor  # [d_v] frequencies (index 0: linear slope)
    phi: Tensor  # [d_v] phases (index 0: linear intercept)


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


def init_time2vec_bank(rng: np.random.Generator, n_heads: int, d_v: int) -> Time2VecBank:
    """Periodic dims cover 1-10 cycles per unit window; linear dim starts as identity."""
    if d_v < 2:
        raise ValueError(f"time embedding needs >= 2 dims (linear + periodic), got {d_v}")
    omega = rng.uniform(2.0 * np.pi, 20.0 * np.pi, size=(n_heads, d_v))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(n_heads, d_v))
    omega[:, 0] = 1.0
    phi[:, 0] = 0.0
    return Time2VecBank(omega=Tensor(omega), phi=Tensor(phi))


def init_mtand_params(
    rng: np.random.Generator, bank: Time2VecBank, d_in: int, d_h: int
) -> MtandParams:
    v, d_v = bank.n_heads, bank.d_v
    return MtandParams(
        bank=bank,
        w_query=Tensor(rng.normal(0.0, d_v**-0.5, size=(v, d_v, d_v))),
        w_key=Tensor(rng.normal(0.0, d_v**-0.5, size=(v, d_v, d_v))),
        w_out=Tensor(rng.normal(0.0, (v * d_in) ** -0.5, size=(v * d_in, d_h))),
        b_out=Tensor(np.zeros(d_h)),
    )


def bank_head(bank: Time2VecBank, v: int) -> Time2VecParams:
    """View of head v; gradients flow back into the bank tensors."""
    d_v = bank.d_v
    return Time2VecParams(
        omega=reshape(narrow(bank.omega, 0, v, 1), (d_v,)),
        phi=reshape(narrow(bank.phi, 0, v, 1), (d_v,)),
    )


def time2vec(times: np.ndarray, params: Time2VecParams) -> Tensor:
    """Embed times: column 0 = omega[0]*t + phi[0], columns i>=1 = sin(omega[i]*t + phi[i])."""
    t_col = np.asarray(times, dtype=np.float64).reshape(-1, 1)
    theta = params.omega * t_col + params.phi  # [n x d_v] by broadcast
    d_v = params.omega.shape[0]
    linear_part = narrow(theta, 1, 0, 1)
    periodic = sin(narrow(theta, 1, 1, d_v - 1))
    return concat([linear_part, periodic], axis=1)


def time2vec_heads(times: np.ndarray, bank: Time2VecBank) -> Tensor:
    """All V heads at once: [V x n x d_v]."""
    return time_embedding(times, bank.omega, bank.phi)


def time_attention(
    grid: ReferenceGrid,
    key_times: np.ndarray,
    values,
    params: MtandParams,
    head: int,
) -> Tensor:
    """One head's interpolation: grid queries attend over observation keys.

    values is [l x c] (Tensor or array). l = 0 returns zeros: with nothing to
    attend over, the head contributes nothing.
    """
    key_times = np.asarray(key_times, dtype=np.float64)
    values_data = values.data if isinstance(values, Tensor) else np.asarray(values, dtype=np.float64)
    if key_times.size == 0:
        return Tensor(np.zeros((grid.n_points, values_data.shape[1] if values_data.ndim == 2 else 1)))
    d_v = params.bank.d_v
    head_params = bank_head(params.bank, head)
    w_q = reshape(narrow(params.w_query, 0, head, 1), (d_v, d_v))
    w_k = reshape(narrow(params.w_key, 0, head, 1), (d_v, d_v))
    q = matmul(time2vec(grid.points, head_params), w_q)  # [alpha x d_v]
    k = matmul(time2vec(key_times, head_params), w_k)  # [l x d_v]
    scores = matmul(q, swapaxes(k, 0, 1)) * (d_v**-0.5)
    weights, _ = masked_softmax(scores, None)
    return matmul(weights, values)


def _interpolate(
    key_times: np.ndarray,
    key_mask: np.ndarray,
    values: np.ndarray,
    grid: ReferenceGrid,
    params: MtandParams,
    grid_embedding: Tensor | None,
) -> Tensor:
    """Every head's interpolation of every series onto the grid: [V x alpha x S x c].

    ``key_times`` and ``key_mask`` are [... x L], one series per leading
    index (S of them); ``values`` [... x L x c] or [... x L] (c = 1) are the
    keys' values. Only the valid keys are embedded and scored, each grid
    query takes its softmax over each series' own keys, and a series without
    keys gives zeros. Scores (e_q W_q)(e_k W_k)^T are taken as
    ((e_q W_q) W_k^T) e_k^T, so the key projection is applied once to the
    alpha grid queries instead of to every key.
    """
    v, d_v = params.bank.n_heads, params.bank.d_v
    n_series = math.prod(key_mask.shape[:-1])
    if not key_mask.any():
        return Tensor(np.zeros((v, grid.n_points, n_series, values.size // key_mask.size)))
    if grid_embedding is None:
        grid_embedding = time2vec_heads(grid.points, params.bank)
    q = matmul(grid_embedding, params.w_query)  # [V x alpha x d_v]
    qk = matmul(q, swapaxes(params.w_key, 1, 2)) * (d_v**-0.5)
    series = np.nonzero(key_mask.reshape(n_series, -1))[0]  # each valid key's series, nondecreasing
    return segment_time_attention(
        qk, key_times[key_mask], params.bank.omega, params.bank.phi, series, n_series, values[key_mask]
    )


def _project_heads(mixed: Tensor, lead: tuple[int, ...], params: MtandParams) -> Tensor:
    """[V x alpha x S x c], S * c = prod(lead) * k -> each grid row's head
    outputs concatenated -> [*lead x alpha x d_h]."""
    v, alpha = mixed.shape[:2]
    per_head = (v, alpha, *lead, mixed.size // (v * alpha * math.prod(lead)))
    if mixed.shape != per_head:
        mixed = reshape(mixed, per_head)
    n = len(lead)
    rows = transpose(mixed, (*range(2, 2 + n), 1, 0, 2 + n))  # [*lead x alpha x V x k]
    return linear(reshape(rows, (*lead, alpha, v * per_head[-1])), params.w_out, params.b_out)


def mtand_ts(
    series: PaddedSeries | list[tuple[np.ndarray, np.ndarray]],
    grid: ReferenceGrid,
    params: MtandParams,
    grid_embedding: Tensor | None = None,
) -> Tensor:
    """Interpolate each feature's own observations onto the grid, all heads and
    features in one segment attention, then project the concatenated head
    outputs.

    ``series`` is a PaddedSeries [... x d_m x L], giving [... x alpha x d_h],
    or one episode's list of per-feature (times, values), giving
    [alpha x d_h]. A feature without observations contributes a zero column.
    ``grid_embedding`` is ``time2vec_heads(grid.points, params.bank)``,
    computed here when not given.
    """
    if not isinstance(series, PaddedSeries):
        one = pad_series([series])
        series = PaddedSeries(one.times[0], one.values[0], one.mask[0])
    mixed = _interpolate(series.times, series.mask, series.values, grid, params, grid_embedding)
    return _project_heads(mixed, series.mask.shape[:-2], params)  # k = d_m: one column per feature


def mtand_txt(
    note_times: np.ndarray,
    note_embeddings: np.ndarray,
    grid: ReferenceGrid,
    params: MtandParams,
    note_mask: np.ndarray | None = None,
    grid_embedding: Tensor | None = None,
) -> Tensor:
    """Interpolate note embeddings (all dims share the note times) onto the grid.

    note_times [... x N], note_embeddings [... x N x d_t] and note_mask
    [... x N] (real notes; default all) give [... x alpha x d_h]. Every
    episode needs at least one note. ``grid_embedding`` is as in ``mtand_ts``.
    """
    note_times = np.asarray(note_times, dtype=np.float64)
    mask = np.ones(note_times.shape, dtype=bool) if note_mask is None else np.asarray(note_mask, dtype=bool)
    if note_times.size == 0 or not mask.any(axis=-1).all():
        raise ValueError("mtand_txt needs at least one note per episode")
    embeddings = np.asarray(note_embeddings, dtype=np.float64)
    mixed = _interpolate(note_times, mask, embeddings, grid, params, grid_embedding)
    return _project_heads(mixed, mask.shape[:-1], params)  # k = d_t
