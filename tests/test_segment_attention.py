"""The segment time-attention kernel behind mTAND: outputs against the direct
per-head oracle on padded groups, gradients against central differences,
and properties over random series lengths and padding."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mmists.imputation import ReferenceGrid
from mmists.mtand import PaddedSeries, init_mtand_params, init_time2vec_bank, mtand_ts, mtand_txt
from mmists.model import RunConfig
from mmists.tensor import ParamInit, ShapeError, Tape, Tensor, segment_time_attention

from gradcheck import finite_difference_gradients, reduce_sum, relative_error, sin
from oracles import time_attention_oracle
from test_mtand import head_vectors
from test_tensor import check_grads


# the keys of five series of up to three keys: series 1 and 4 have none
SERIES_MASK = np.arange(3) < np.array([2, 0, 3, 1, 0])[:, None]


def padded(mask, valid, fill=0.0) -> np.ndarray:
    """``valid`` [n x ...], the valid keys' entries in C order, placed at the
    True entries of ``mask``; the padding holds ``fill``."""
    valid = np.asarray(valid, dtype=np.float64)
    out = np.full(mask.shape + valid.shape[1:], fill)
    out[mask] = valid
    return out


def per_head(out, m, c) -> np.ndarray:
    """The kernel's [*lead x a x V*m*c] as [*lead x m x V x a x c]: one
    [V x a x c] block per series."""
    *lead, a, _ = out.shape
    return np.moveaxis(out.reshape(*lead, a, -1, m, c), (-4, -3), (-2, -3))


def make_params(seed, v=2, d_v=5, d_in=1, d_h=4):
    rng = np.random.default_rng(seed)
    bank = init_time2vec_bank(ParamInit(rng=rng), v, d_v)
    return init_mtand_params(ParamInit(rng=rng), bank, d_in, d_h)


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
        out = segment_time_attention(
            grid.points,
            params.w_query,
            params.w_key,
            params.bank.omega,
            params.bank.phi,
            s.times,
            s.mask,
            s.values[..., None],
        ).data
        assert out.shape == (3, 5, 3 * 3 * 1) and out.flags.c_contiguous
        blocks = per_head(out, 3, 1)
        for b in range(3):
            for j in range(3):
                l = s.mask[b, j]
                want = per_head_oracle(grid, s.times[b, j, l], s.values[b, j, l].reshape(-1, 1), params)
                assert_allclose(blocks[b, j], want, atol=1e-9)

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
        """(rng, inputs): the kernel's arguments but its values, for 2 heads,
        3 queries, d_v = 4 and 6 keys in the 5 series of ``SERIES_MASK``,
        with nonzero times in the padding."""
        rng = np.random.default_rng(seed)
        inputs = dict(
            query_times=rng.random(3),
            w_query=Tensor(rng.normal(size=(2, 4, 4))),
            w_key=Tensor(rng.normal(size=(2, 4, 4))),
            key_times=padded(SERIES_MASK, rng.random(6), fill=0.5),
            omega=Tensor(rng.normal(size=(2, 4)) * 3.0),
            phi=Tensor(rng.normal(size=(2, 4))),
            key_mask=SERIES_MASK,
        )
        return rng, inputs

    @pytest.mark.parametrize("width", [1, 3])
    def test_gradients_match_central_differences(self, width):
        rng, inputs = self.setup_case()
        values = padded(SERIES_MASK, rng.normal(size=(6, width)))
        # see criterion 01: the keys' share of phi[:, 0] is 0. The weights
        # are drawn [V x a x series x c] and laid out as the output's rows.
        w = np.swapaxes(rng.normal(size=(2, 3, 5, width)) * 0.1, 0, 1).reshape(3, -1)
        check_grads(
            lambda: reduce_sum(sin(segment_time_attention(**inputs, values=values)) * w),
            {name: inputs[name] for name in ("w_query", "w_key", "omega", "phi")},
        )

    def test_bank_gradient_is_the_keys_share_then_the_queries(self):
        """The node returns the bank gradient as two shares, the keys' and
        then the queries'. The queries' share matches central differences of
        the per-head oracle with only the queries' omega/phi moved."""
        rng, inputs = self.setup_case(77)
        values = padded(SERIES_MASK, rng.normal(size=(6, 1)))
        g = rng.normal(size=(2, 3, 5, 1))  # [V x a x series x c]
        with Tape() as tape:
            out = segment_time_attention(**inputs, values=values)
            g_omega_q, g_phi_q = tape.nodes[out._node].backward(np.swapaxes(g, 0, 1).reshape(3, -1))[4:]
        omega, phi = inputs["omega"].data, inputs["phi"].data
        w_q, w_k = inputs["w_query"].data, inputs["w_key"].data
        query_bank = {"omega": Tensor(omega.copy()), "phi": Tensor(phi.copy())}

        def loss() -> float:  # sum(out * g), the queries embedded under query_bank
            total = 0.0
            for v in range(2):
                q_emb = head_vectors(inputs["query_times"], query_bank["omega"].data[v], query_bank["phi"].data[v])
                for s in range(5):
                    own = SERIES_MASK[s]
                    k_emb = head_vectors(inputs["key_times"][s, own], omega[v], phi[v])
                    total += np.sum(time_attention_oracle(q_emb, k_emb, values[s, own], w_q[v], w_k[v]) * g[v, :, s])
            return total

        numeric = finite_difference_gradients(loss, query_bank)
        assert relative_error(g_omega_q, numeric["omega"]) < 1e-4
        assert relative_error(g_phi_q, numeric["phi"]) < 1e-4

    def test_segments_without_keys_give_zero_rows(self):
        rng, inputs = self.setup_case()
        out = segment_time_attention(**inputs, values=padded(SERIES_MASK, rng.normal(size=(6, 1)), fill=1.0)).data
        assert out.shape == (3, 2 * 5 * 1)
        blocks = per_head(out, 5, 1)
        assert np.all(blocks[[1, 4]] == 0.0)
        assert np.all(blocks[[0, 2, 3]] != 0.0)

    @pytest.mark.parametrize("length", [0, 2])
    def test_no_keys_gives_zeros(self, length):
        _, inputs = self.setup_case()
        mask = np.zeros((3, length), dtype=bool)
        inputs.update(key_times=np.ones(mask.shape), key_mask=mask)
        with Tape() as tape:
            out = segment_time_attention(**inputs, values=np.ones((3, length, 2)))
        assert out.shape == (3, 2 * 3 * 2) and not out.data.any()
        assert not tape.nodes  # a constant: nothing to differentiate

    def test_bad_shapes_rejected(self):
        _, inputs = self.setup_case()
        values = np.ones((5, 3, 1))
        for bad in (
            {"key_times": np.ones((5, 2))},  # times vs mask
            {"key_mask": SERIES_MASK[:4]},  # mask vs times and values
            {"key_times": np.ones(3), "key_mask": SERIES_MASK[0]},  # no series axis
            {"values": np.ones((5, 3))},  # values without their channel axis
            {"values": np.ones((5, 2, 1))},  # values vs mask
            {"phi": Tensor(np.ones((3, 4)))},
            {"w_key": Tensor(np.ones((2, 4, 3)))},
        ):
            with pytest.raises(ShapeError):
                segment_time_attention(**{**inputs, "values": values, **bad})

    def test_taped_call_keeps_one_key_sized_array(self):
        """At the default config's V, d_v and alpha, a taped call keeps the
        weights [V x n x a], its output and one [V x n x d_v] array (the keys'
        Time2Vec tangents), not the keys and the slope as well; what it keeps
        of the a grid queries is under half of that at n = 200."""
        config = RunConfig()
        v, d_v, a, n = config.time_heads, config.d_timeembed, config.alpha, 200
        rng = np.random.default_rng(76)
        w_query, w_key = Tensor(rng.normal(size=(v, d_v, d_v))), Tensor(rng.normal(size=(v, d_v, d_v)))
        omega, phi = Tensor(rng.normal(size=(v, d_v))), Tensor(rng.normal(size=(v, d_v)))
        times, values = np.sort(rng.random(n)).reshape(4, -1), rng.normal(size=(4, n // 4, 1))
        mask = np.ones(times.shape, dtype=bool)
        grid = ReferenceGrid(a).points
        tracemalloc.start()
        try:
            with Tape():
                out = segment_time_attention(grid, w_query, w_key, omega, phi, times, mask, values)
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        key_sized = v * n * d_v * 8
        assert key_sized <= held - out.data.nbytes - v * n * a * 8 < 1.5 * key_sized


@st.composite
def segment_cases(draw):
    """The kernel's arguments, values included: lead x m series of up to
    three keys each, padding holding random times and values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, a, d_v = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    lead, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    counts = rng.integers(0, 4, size=(lead, m))
    mask = np.arange(max(1, counts.max())) < counts[..., None]
    c = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 10.0]))  # 10: near one-hot softmax rows
    return dict(
        query_times=rng.random(a),
        w_query=Tensor(rng.normal(size=(v, d_v, d_v)) * scale),
        w_key=Tensor(rng.normal(size=(v, d_v, d_v))),
        omega=Tensor(rng.normal(size=(v, d_v)) * 5.0),
        phi=Tensor(rng.normal(size=(v, d_v))),
        key_times=rng.random(mask.shape),
        key_mask=mask,
        values=rng.normal(size=mask.shape + (c,)),
    )


@settings(max_examples=200, deadline=None)
@given(segment_cases())
def test_rows_are_convex_combinations_of_their_own_segment(case):
    mask, values = case["key_mask"], case["values"]
    m, c = values.shape[1], values.shape[-1]
    out = per_head(segment_time_attention(**case).data, m, c)
    ones = per_head(segment_time_attention(**{**case, "values": np.ones(values.shape)}).data, m, c)
    for b, j in np.ndindex(mask.shape[:2]):
        own = values[b, j][mask[b, j]]
        if own.size == 0:
            assert np.all(out[b, j] == 0.0)
            continue
        assert np.all(out[b, j] >= own.min(axis=0) - 1e-12)
        assert np.all(out[b, j] <= own.max(axis=0) + 1e-12)
        assert_allclose(ones[b, j], 1.0, rtol=0, atol=1e-12)  # each series' weights sum to one


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
