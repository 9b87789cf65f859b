"""The segment time-attention kernel behind mTAND: outputs against the direct
per-head oracle on padded groups, gradients against central differences,
and properties over random segmentations and padding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mmists.imputation import ReferenceGrid
from mmists.mtand import PaddedSeries, init_mtand_params, init_time2vec_bank, mtand_ts, mtand_txt
from mmists.tensor import ShapeError, Tensor, reduce_sum, segment_time_attention, sin
from oracles import time_attention_oracle
from test_mtand import head_vectors
from test_tensor import check_grads


def make_params(seed, v=2, d_v=5, d_in=1, d_h=4):
    rng = np.random.default_rng(seed)
    bank = init_time2vec_bank(rng, v, d_v)
    return init_mtand_params(rng, bank, d_in, d_h)


def padded_group() -> PaddedSeries:
    """Three episodes x three features, L = 4: unequal lengths, single-key
    series, an unobserved feature, an episode with no observations, and
    nonzero times and values in the padding slots."""
    rng = np.random.default_rng(70)
    counts = np.array([[3, 1, 0], [0, 0, 0], [4, 1, 2]])
    mask = np.arange(4) < counts[..., None]
    times = rng.random(mask.shape)
    values = rng.normal(size=mask.shape)
    return PaddedSeries(times, values, mask)


def grid_queries(grid, params) -> np.ndarray:
    """((e_q W_q) W_k^T) / sqrt(d_v) per head, the kernel's queries."""
    omega, phi = params.bank.omega.data, params.bank.phi.data
    d_v = omega.shape[1]
    return np.stack(
        [
            head_vectors(grid.points, omega[v], phi[v]) @ params.w_query.data[v] @ params.w_key.data[v].T
            for v in range(omega.shape[0])
        ]
    ) * d_v**-0.5


def per_head_oracle(grid, times, values, params) -> np.ndarray:
    """[V x alpha x c] for one series (times [l], values [l x c])."""
    omega, phi = params.bank.omega.data, params.bank.phi.data
    return np.stack(
        [
            time_attention_oracle(
                head_vectors(grid.points, omega[v], phi[v]),
                head_vectors(times, omega[v], phi[v]),
                values,
                params.w_query.data[v],
                params.w_key.data[v],
            )
            for v in range(omega.shape[0])
        ]
    )


class TestAgainstOracle:
    def test_each_series_of_a_padded_group_matches_the_oracle(self):
        params = make_params(71, v=3, d_v=6)
        grid = ReferenceGrid(5)
        s = padded_group()
        n_series = s.mask.shape[0] * s.mask.shape[1]
        segments = np.nonzero(s.mask.reshape(n_series, -1))[0]
        out = segment_time_attention(
            Tensor(grid_queries(grid, params)),
            s.times[s.mask],
            params.bank.omega,
            params.bank.phi,
            segments,
            n_series,
            s.values[s.mask],
        ).data
        assert out.shape == (3, 5, n_series, 1)
        flat_t, flat_v, flat_m = (x.reshape(n_series, -1) for x in (s.times, s.values, s.mask))
        for j in range(n_series):
            l = flat_m[j]
            want = per_head_oracle(grid, flat_t[j, l], flat_v[j, l].reshape(-1, 1), params)
            assert_allclose(out[:, :, j, :], want, atol=1e-9)

    def test_mtand_ts_group_matches_oracle_and_projection(self):
        params = make_params(72, v=2, d_v=5, d_in=3, d_h=4)
        grid = ReferenceGrid(4)
        s = padded_group()
        got = mtand_ts(s, grid, params).data  # [G x alpha x d_h]
        for b in range(3):
            heads = np.zeros((2, 4, 3))  # [V x alpha x d_m]
            for j in range(3):
                l = s.mask[b, j]
                heads[:, :, j] = per_head_oracle(grid, s.times[b, j, l], s.values[b, j, l].reshape(-1, 1), params)[..., 0]
            want = np.transpose(heads, (1, 0, 2)).reshape(4, 6) @ params.w_out.data + params.b_out.data
            assert_allclose(got[b], want, atol=1e-9)

    def test_mtand_txt_padded_notes_match_oracle_and_projection(self):
        rng = np.random.default_rng(73)
        params = make_params(74, v=2, d_v=5, d_in=3, d_h=4)
        grid = ReferenceGrid(4)
        counts = np.array([1, 3, 2])
        mask = np.arange(3) < counts[:, None]
        times, embs = rng.random((3, 3)), rng.normal(size=(3, 3, 3))
        got = mtand_txt(times, embs, grid, params, mask).data
        for b in range(3):
            heads = per_head_oracle(grid, times[b, mask[b]], embs[b, mask[b]], params)  # [V x alpha x d_t]
            want = np.transpose(heads, (1, 0, 2)).reshape(4, 6) @ params.w_out.data + params.b_out.data
            assert_allclose(got[b], want, atol=1e-9)


class TestKernel:
    def setup_case(self, seed=75):
        rng = np.random.default_rng(seed)
        queries = Tensor(rng.normal(size=(2, 3, 4)))
        omega = Tensor(rng.normal(size=(2, 4)) * 3.0)
        phi = Tensor(rng.normal(size=(2, 4)))
        times = rng.random(6)
        segments = np.array([0, 0, 2, 2, 2, 3])  # segments 1 and 4 have no keys
        return rng, queries, omega, phi, times, segments

    @pytest.mark.parametrize("width", [1, 3])
    def test_gradients_match_central_differences(self, width):
        rng, queries, omega, phi, times, segments = self.setup_case()
        values = rng.normal(size=(6, width))
        w = rng.normal(size=(2, 3, 5, width)) * 0.1  # see criterion 01: phi[:, 0] has gradient 0
        check_grads(
            lambda: reduce_sum(sin(segment_time_attention(queries, times, omega, phi, segments, 5, values)) * w),
            {"queries": queries, "omega": omega, "phi": phi},
        )

    def test_segments_without_keys_give_zero_rows(self):
        rng, queries, omega, phi, times, segments = self.setup_case()
        out = segment_time_attention(queries, times, omega, phi, segments, 5, rng.normal(size=6)).data
        assert out.shape == (2, 3, 5, 1)
        assert np.all(out[:, :, [1, 4]] == 0.0)
        assert np.all(out[:, :, [0, 2, 3]] != 0.0)

    def test_no_keys_gives_zeros(self):
        _, queries, omega, phi, _, _ = self.setup_case()
        out = segment_time_attention(queries, np.zeros(0), omega, phi, np.zeros(0, int), 3, np.zeros((0, 2)))
        assert out.shape == (2, 3, 3, 2) and not out.data.any()

    def test_bad_segments_rejected(self):
        _, queries, omega, phi, times, _ = self.setup_case()
        values = np.ones(6)
        with pytest.raises(ValueError):
            segment_time_attention(queries, times, omega, phi, [0, 1, 0, 1, 2, 2], 3, values)
        with pytest.raises(ValueError):
            segment_time_attention(queries, times, omega, phi, [0, 0, 1, 1, 2, 3], 3, values)
        with pytest.raises(ShapeError):
            segment_time_attention(queries, times, omega, phi, [0, 0, 1], 3, values)
        with pytest.raises(ShapeError):
            segment_time_attention(queries, times, phi, Tensor(np.ones((3, 4))), [0] * 6, 1, values)


@st.composite
def segment_cases(draw):
    """(queries, omega, phi, times, segments, n_segments, values)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, a, d_v = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    n_segments = draw(st.integers(1, 6))
    counts = rng.integers(0, 4, size=n_segments)
    segments = np.repeat(np.arange(n_segments), counts)
    c = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 10.0]))  # 10: near one-hot softmax rows
    return (
        rng.normal(size=(v, a, d_v)) * scale,
        rng.normal(size=(v, d_v)) * 5.0,
        rng.normal(size=(v, d_v)),
        rng.random(segments.size),
        segments,
        n_segments,
        rng.normal(size=(segments.size, c)),
    )


@settings(max_examples=200, deadline=None)
@given(segment_cases())
def test_rows_are_convex_combinations_of_their_own_segment(case):
    q, omega, phi, times, segments, n_segments, values = case
    out = segment_time_attention(Tensor(q), times, Tensor(omega), Tensor(phi), segments, n_segments, values).data
    ones = segment_time_attention(
        Tensor(q), times, Tensor(omega), Tensor(phi), segments, n_segments, np.ones(segments.size)
    ).data
    for s in range(n_segments):
        own = values[segments == s]
        if own.size == 0:
            assert np.all(out[:, :, s] == 0.0)
            continue
        assert np.all(out[:, :, s] >= own.min(axis=0) - 1e-12)
        assert np.all(out[:, :, s] <= own.max(axis=0) + 1e-12)
        assert_allclose(ones[:, :, s], 1.0, rtol=0, atol=1e-12)  # each segment's weights sum to one


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_padding_slots_change_nothing(seed):
    rng = np.random.default_rng(seed)
    group, d_m, length = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    params = make_params(76, v=2, d_v=4, d_in=d_m, d_h=3)
    txt_params = make_params(77, v=2, d_v=4, d_in=2, d_h=3)
    grid = ReferenceGrid(3)
    mask = rng.random((group, d_m, length)) < 0.6
    series = PaddedSeries(rng.random(mask.shape), rng.normal(size=mask.shape), mask)
    noisy = PaddedSeries(
        np.where(mask, series.times, rng.normal(size=mask.shape) * 100.0),
        np.where(mask, series.values, rng.normal(size=mask.shape) * 100.0),
        mask,
    )
    np.testing.assert_array_equal(mtand_ts(series, grid, params).data, mtand_ts(noisy, grid, params).data)

    note_mask = np.arange(length) < rng.integers(1, length + 1, size=group)[:, None]
    times, embs = rng.random(note_mask.shape), rng.normal(size=note_mask.shape + (2,))
    noisy_times = np.where(note_mask, times, rng.normal(size=note_mask.shape) * 100.0)
    noisy_embs = np.where(note_mask[..., None], embs, rng.normal(size=embs.shape) * 100.0)
    np.testing.assert_array_equal(
        mtand_txt(times, embs, grid, txt_params, note_mask).data,
        mtand_txt(noisy_times, noisy_embs, grid, txt_params, note_mask).data,
    )
