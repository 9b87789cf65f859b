"""Time embeddings and attention interpolation, pinned against direct oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mmists.imputation import ReferenceGrid
from mmists.mtand import (
    MtandParams,
    PaddedSeries,
    Time2VecBank,
    init_mtand_params,
    init_time2vec_bank,
    mtand_ts,
    mtand_txt,
    pad_series,
)
from mmists import tensor
from mmists.tensor import ParamInit, Tape, Tensor, segment_time_attention
from gradcheck import reduce_sum
from oracles import time_attention_oracle


def head_vectors(times, omega, phi):
    """Scalar-loop reference for one head's time embedding."""
    out = np.zeros((len(times), len(omega)))
    for i, t in enumerate(times):
        out[i, 0] = omega[0] * t + phi[0]
        for d in range(1, len(omega)):
            out[i, d] = np.sin(omega[d] * t + phi[d])
    return out


def time2vec(times, bank):
    """The shipped Time2Vec of ``times`` under every head of ``bank``: [V x n x d_v]."""
    return tensor._time2vec(tensor._time2vec_rows(times), bank.omega.data, bank.phi.data)[0]


def make_params(rng, v=2, d_v=5, d_in=1, d_h=4):
    bank = init_time2vec_bank(ParamInit(rng=rng), v, d_v)
    return init_mtand_params(ParamInit(rng=rng), bank, d_in, d_h)


def one_head(omega, phi):
    """A one-head bank from per-head omega/phi vectors."""
    return Time2VecBank(Tensor(np.array(omega, dtype=float)[None]), Tensor(np.array(phi, dtype=float)[None]))


def unprojected(params):
    """Make the output projection the identity, so mtand_ts/mtand_txt return
    every head's interpolation unmixed: column v*k + j is head v on input
    column (feature or embedding dim) j."""
    n = params.w_out.shape[0]
    params.w_out = Tensor(np.eye(n))
    params.b_out = Tensor(np.zeros(n))
    return params


def head_interpolations(grid, key_times, values, params):
    """Each head's interpolation of one series with shared key times, through
    the shipping path: [V x alpha x c] for values [l x c]."""
    values = np.asarray(values, dtype=np.float64)
    v, c = params.bank.n_heads, values.shape[1]
    if c == 1:  # one feature of a time series
        series = pad_series([[(np.asarray(key_times, dtype=np.float64), values[:, 0])]])
        out = mtand_ts(series, grid, params).data[0]
    else:  # note embeddings share their notes' times
        out = mtand_txt(key_times, values, grid, params).data
    return out.reshape(grid.n_points, v, c).transpose(1, 0, 2)


class TestTime2Vec:
    def test_zero_parameters_give_zero_embedding(self):
        out = time2vec(np.array([0.3, 0.9]), one_head(np.zeros(4), np.zeros(4)))
        assert_allclose(out, 0.0)

    def test_full_period_wraps_to_zero(self):
        out = time2vec(np.array([1.0]), one_head(np.full(4, 2.0 * np.pi), np.zeros(4)))[0]
        assert out[0, 0] == pytest.approx(2.0 * np.pi)
        assert_allclose(out[0, 1:], 0.0, atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(30)
        omega = rng.normal(size=6)
        phi = rng.normal(size=6)
        times = rng.random(7)
        out = time2vec(times, one_head(omega, phi))[0]
        assert_allclose(out, head_vectors(times, omega, phi), atol=1e-12)

    def test_banked_heads_match_per_head_op(self):
        rng = np.random.default_rng(31)
        bank = init_time2vec_bank(ParamInit(rng=rng), 3, 5)
        times = rng.random(4)
        all_heads = time2vec(times, bank)
        for v in range(3):
            single = time2vec(times, one_head(bank.omega.data[v], bank.phi.data[v]))[0]
            assert_allclose(all_heads[v], single, atol=1e-12)

    def test_bank_init_ranges(self):
        bank = init_time2vec_bank(ParamInit(rng=np.random.default_rng(32)), 4, 8)
        omega, phi = bank.omega.data, bank.phi.data
        assert_allclose(omega[:, 0], 1.0)
        assert_allclose(phi[:, 0], 0.0)
        assert np.all(omega[:, 1:] >= 2 * np.pi) and np.all(omega[:, 1:] <= 20 * np.pi)
        assert np.all(phi[:, 1:] >= 0) and np.all(phi[:, 1:] <= 2 * np.pi)

    def test_too_narrow_bank_rejected(self):
        with pytest.raises(ValueError):
            init_time2vec_bank(ParamInit(rng=np.random.default_rng(0)), 2, 1)


class TestTimeAttention:
    """Per-head interpolation, read through mtand_ts (one feature) or
    mtand_txt (several embedding dims) with an identity output projection."""

    def test_single_key_copies_value_everywhere(self):
        rng = np.random.default_rng(33)
        params = unprojected(make_params(rng, d_in=3))
        value = rng.normal(size=(1, 3))
        out = head_interpolations(ReferenceGrid(4), np.array([0.4]), value, params)
        for head in out:
            assert_allclose(head, np.tile(value, (4, 1)))

    def test_identical_keys_and_values_collapse(self):
        rng = np.random.default_rng(34)
        params = unprojected(make_params(rng, d_in=2))
        u = rng.normal(size=2)
        values = np.stack([u, u])
        out = head_interpolations(ReferenceGrid(3), np.array([0.2, 0.8]), values, params)
        for head in out:
            assert_allclose(head, np.tile(u, (3, 1)), atol=1e-12)

    def test_zero_keys_give_zero_output(self):
        params = unprojected(make_params(np.random.default_rng(35), d_in=1))
        out = head_interpolations(ReferenceGrid(3), np.array([]), np.zeros((0, 1)), params)
        assert_allclose(out, np.zeros((2, 3, 1)))

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(36)
        for c in (1, 2):
            params = unprojected(make_params(rng, v=2, d_v=6, d_in=c))
            grid = ReferenceGrid(3)
            key_times = rng.random(4)
            values = rng.normal(size=(4, c))
            got = head_interpolations(grid, key_times, values, params)
            for head in (0, 1):
                omega = params.bank.omega.data[head]
                phi = params.bank.phi.data[head]
                want = time_attention_oracle(
                    head_vectors(grid.points, omega, phi),
                    head_vectors(key_times, omega, phi),
                    values,
                    params.w_query.data[head],
                    params.w_key.data[head],
                )
                assert_allclose(got[head], want, atol=1e-9)

    def test_output_is_convex_combination_of_values(self):
        rng = np.random.default_rng(37)
        params = unprojected(make_params(rng, d_in=1))
        for _ in range(50):
            l = int(rng.integers(1, 6))
            values = rng.normal(size=(l, 1))
            out = head_interpolations(ReferenceGrid(4), rng.random(l), values, params)
            assert np.all(out >= values.min() - 1e-12)
            assert np.all(out <= values.max() + 1e-12)


class TestMtandTs:
    def test_single_observation_per_feature_gives_constant_columns(self):
        rng = np.random.default_rng(38)
        params = make_params(rng, v=2, d_v=4, d_in=3, d_h=5)
        series = pad_series([[(np.array([rng.random()]), np.array([c])) for c in (0.2, 0.7, 0.4)]])
        out = mtand_ts(series, ReferenceGrid(4), params).data[0]
        # every grid row attends to the same single values, so rows are identical
        assert_allclose(out, np.tile(out[0], (4, 1)), atol=1e-12)

    def test_single_head_identity_projection_reproduces_attention(self):
        rng = np.random.default_rng(39)
        bank = init_time2vec_bank(ParamInit(rng=rng), 1, 5)
        params = init_mtand_params(ParamInit(rng=rng), bank, d_in=2, d_h=2)
        params.w_out = Tensor(np.eye(2))
        params.b_out = Tensor(np.zeros(2))
        series = [
            (rng.random(3), rng.normal(size=3)),
            (rng.random(4), rng.normal(size=4)),
        ]
        grid = ReferenceGrid(3)
        out = mtand_ts(pad_series([series]), grid, params).data[0]
        omega, phi = bank.omega.data[0], bank.phi.data[0]
        for j, (times, vals) in enumerate(series):
            want = time_attention_oracle(
                head_vectors(grid.points, omega, phi),
                head_vectors(times, omega, phi),
                vals.reshape(-1, 1),
                params.w_query.data[0],
                params.w_key.data[0],
            )
            assert_allclose(out[:, j], want[:, 0], atol=1e-12)

    def test_zero_observation_feature_contributes_zero_column(self):
        rng = np.random.default_rng(40)
        bank = init_time2vec_bank(ParamInit(rng=rng), 2, 4)
        params = init_mtand_params(ParamInit(rng=rng), bank, d_in=2, d_h=3)
        series = pad_series([[(np.array([]), np.array([])), (rng.random(3), rng.normal(size=3))]])
        w = params.w_out.data.copy()
        out = mtand_ts(series, ReferenceGrid(3), params).data
        # zero the weights feeding from the empty feature's slots: output unchanged
        params.w_out.data[0, :] = 0.0  # head 0, feature 0
        params.w_out.data[2, :] = 0.0  # head 1, feature 0
        out2 = mtand_ts(series, ReferenceGrid(3), params).data
        assert_allclose(out, out2, atol=1e-12)
        params.w_out.data[:] = w

    def test_episode_without_observations_gives_the_output_bias(self):
        rng = np.random.default_rng(47)
        bank = init_time2vec_bank(ParamInit(rng=rng), 2, 4)
        params = init_mtand_params(ParamInit(rng=rng), bank, d_in=2, d_h=3)
        params.b_out.data[:] = rng.normal(size=3)
        empty = pad_series([[(np.array([]), np.array([]))] * 2])
        with Tape() as tape:
            out = mtand_ts(empty, ReferenceGrid(3), params)
            tape.backward(reduce_sum(out))
        assert_allclose(out.data[0], np.broadcast_to(params.b_out.data, (3, 3)), atol=1e-15)
        assert tape.grad_or_none(bank.omega) is None  # no key was embedded

    def test_shape_contract(self):
        rng = np.random.default_rng(41)
        bank = init_time2vec_bank(ParamInit(rng=rng), 8, 6)
        params = init_mtand_params(ParamInit(rng=rng), bank, d_in=17, d_h=64)
        series = pad_series([[(rng.random(2), rng.normal(size=2)) for _ in range(17)]])
        assert params.w_out.shape == (8 * 17, 64)
        out = mtand_ts(series, ReferenceGrid(48), params)
        assert out.shape == (1, 48, 64)


class TestMtandTxt:
    def test_single_note_broadcasts_projected_embedding(self):
        rng = np.random.default_rng(42)
        params = make_params(rng, v=2, d_v=4, d_in=6, d_h=5)
        emb = rng.normal(size=(1, 6))
        out = mtand_txt(np.array([0.3]), emb, ReferenceGrid(4), params).data
        assert_allclose(out, np.tile(out[0], (4, 1)), atol=1e-12)
        # l=1 attention passes the embedding through, so the projection sees [emb, emb]
        want = np.concatenate([emb[0], emb[0]]) @ params.w_out.data + params.b_out.data
        assert_allclose(out[0], want, atol=1e-12)

    def test_duplicate_notes_match_single_note(self):
        rng = np.random.default_rng(43)
        params = make_params(rng, v=2, d_v=4, d_in=6, d_h=5)
        emb = rng.normal(size=6)
        one = mtand_txt(np.array([0.5]), emb.reshape(1, -1), ReferenceGrid(3), params).data
        two = mtand_txt(np.array([0.2, 0.8]), np.stack([emb, emb]), ReferenceGrid(3), params).data
        assert_allclose(one, two, atol=1e-12)

    def test_matches_per_dimension_attention_oracle(self):
        rng = np.random.default_rng(44)
        bank = init_time2vec_bank(ParamInit(rng=rng), 2, 5)
        params = init_mtand_params(ParamInit(rng=rng), bank, d_in=3, d_h=4)
        times = rng.random(4)
        embs = rng.normal(size=(4, 3))
        grid = ReferenceGrid(3)
        got = mtand_txt(times, embs, grid, params).data
        per_head = []
        for v in range(2):
            omega, phi = bank.omega.data[v], bank.phi.data[v]
            per_head.append(
                time_attention_oracle(
                    head_vectors(grid.points, omega, phi),
                    head_vectors(times, omega, phi),
                    embs,
                    params.w_query.data[v],
                    params.w_key.data[v],
                )
            )
        want = np.concatenate(per_head, axis=1) @ params.w_out.data + params.b_out.data
        assert_allclose(got, want, atol=1e-9)

    def test_no_notes_rejected(self):
        params = make_params(np.random.default_rng(45), d_in=2)
        with pytest.raises(ValueError):
            mtand_txt(np.array([]), np.zeros((0, 2)), ReferenceGrid(3), params)


class TestStreamIsKernelAndProjection:
    """Each mTAND stream records the kernel and the ``linear`` that reads its
    output, and nothing between them: the kernel writes the projection's
    layout, so no ``reshape`` or ``transpose`` rebuilds the rows."""

    def assert_kernel_then_linear(self, run):
        with Tape() as tape:
            run()
        assert [node.op for node in tape.nodes] == ["segment_time_attention", "linear"]
        assert tape.nodes[1].inputs[0] == 0  # the linear reads the kernel's output

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_mtand_ts(self, lead):
        rng = np.random.default_rng(49)
        params = make_params(rng, v=3, d_v=4, d_in=2, d_h=5)
        mask = rng.random(lead + (2, 4)) < 0.6
        series = PaddedSeries(rng.random(mask.shape), rng.normal(size=mask.shape), mask)
        self.assert_kernel_then_linear(lambda: mtand_ts(series, ReferenceGrid(3), params))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_mtand_txt(self, lead):
        rng = np.random.default_rng(50)
        params = make_params(rng, v=3, d_v=4, d_in=2, d_h=5)
        mask = np.arange(3) < rng.integers(1, 4, size=lead + (1,))
        times, embs = rng.random(mask.shape), rng.normal(size=mask.shape + (2,))
        self.assert_kernel_then_linear(lambda: mtand_txt(times, embs, ReferenceGrid(3), params, mask))


class TestSharedBankGradients:
    def test_joint_gradient_is_sum_of_modality_gradients(self):
        rng = np.random.default_rng(46)
        bank = init_time2vec_bank(ParamInit(rng=rng), 2, 4)
        ts_params = init_mtand_params(ParamInit(rng=rng), bank, d_in=2, d_h=3)
        txt_params = init_mtand_params(ParamInit(rng=rng), bank, d_in=5, d_h=3)
        grid = ReferenceGrid(4)
        series = pad_series([[(rng.random(3), rng.normal(size=3)), (rng.random(2), rng.normal(size=2))]])
        note_times = rng.random(3)
        note_embs = rng.normal(size=(3, 5))

        def run(include_ts, include_txt):
            with Tape() as tape:
                parts = []
                if include_ts:
                    parts.append(reduce_sum(mtand_ts(series, grid, ts_params)))
                if include_txt:
                    parts.append(reduce_sum(mtand_txt(note_times, note_embs, grid, txt_params)))
                loss = parts[0] if len(parts) == 1 else parts[0] + parts[1]
                tape.backward(loss)
            return tape.grad(bank.omega).copy(), tape.grad(bank.phi).copy()

        joint_o, joint_p = run(True, True)
        ts_o, ts_p = run(True, False)
        txt_o, txt_p = run(False, True)
        assert_allclose(joint_o, ts_o + txt_o, atol=1e-12)
        assert_allclose(joint_p, ts_p + txt_p, atol=1e-12)
        assert np.any(ts_o != 0.0) and np.any(txt_o != 0.0)

    def test_bank_object_is_structurally_shared(self):
        rng = np.random.default_rng(47)
        bank = init_time2vec_bank(ParamInit(rng=rng), 2, 4)
        ts_params = init_mtand_params(ParamInit(rng=rng), bank, d_in=2, d_h=3)
        txt_params = init_mtand_params(ParamInit(rng=rng), bank, d_in=5, d_h=3)
        assert ts_params.bank.omega is txt_params.bank.omega
        assert ts_params.bank.phi is txt_params.bank.phi


class TestPhaseShiftScoreIdentity:
    """With all periodic frequencies zero, shifting their phases changes
    attention weights exactly when the key projection lets the linear
    (time-carrying) dimension through."""

    def weights(self, bank_omega, bank_phi, w_q, w_k, q_times, k_times):
        """One head's attention weights [a x l]: the kernel's mix of one-hot values."""
        bank = one_head(bank_omega, bank_phi)
        l = len(k_times)
        out = segment_time_attention(
            q_times, Tensor(w_q[None]), Tensor(w_k[None]), bank.omega, bank.phi,
            k_times[None], np.ones((1, l), dtype=bool), np.eye(l)[None],
        )
        return out.data  # [a x V*m*c] with V = m = 1 and c = l

    def test_shift_invariance_requires_zero_linear_key_weight(self):
        rng = np.random.default_rng(48)
        d_v = 4
        omega = np.zeros(d_v)
        omega[0] = 1.0  # only the linear dim carries time
        phi = rng.uniform(0, 2 * np.pi, size=d_v)
        phi[0] = 0.0
        w_q = rng.normal(size=(d_v, d_v))
        w_k = rng.normal(size=(d_v, d_v))
        q_times = rng.random(3)
        k_times = rng.random(4)
        shifted = phi.copy()
        shifted[1:] += 0.7

        # generic key projection: weights change under the phase shift
        before = self.weights(omega, phi, w_q, w_k, q_times, k_times)
        after = self.weights(omega, shifted, w_q, w_k, q_times, k_times)
        assert not np.allclose(before, after, atol=1e-9)

        # zero the linear dim's key-side row: weights become shift-invariant
        w_k0 = w_k.copy()
        w_k0[0, :] = 0.0
        before = self.weights(omega, phi, w_q, w_k0, q_times, k_times)
        after = self.weights(omega, shifted, w_q, w_k0, q_times, k_times)
        assert_allclose(before, after, atol=1e-12)
