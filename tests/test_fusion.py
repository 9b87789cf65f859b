"""Interleaved fusion stack: sublayer algebra, oracles, masking, classifier."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mmists.fusion import (
    ClassifierParams,
    classify,
    classify_single,
    cross_attend,
    ffn_block,
    fusion_stack,
    init_attention_params,
    init_classifier,
    init_ffn_params,
    init_fusion_layer,
    init_single_layer,
    self_attend,
    single_stack,
)
from mmists.tensor import ParamInit, ShapeError, Tensor, gather_rows
from oracles import layer_norm_oracle, multihead_attention_oracle

D = 8
HEADS = 2


def zero_out_projections(layer):
    for attn in (layer.ts_self, layer.txt_self, layer.ts_cross, layer.txt_cross):
        attn.w_o.data[:] = 0.0
        attn.b_o.data[:] = 0.0
    for ffn in (layer.ts_ffn, layer.txt_ffn):
        ffn.w_out.data[:] = 0.0
        ffn.b_out.data[:] = 0.0


def oracle_attend(x_q, x_kv, p, heads, key_mask=None):
    qn = layer_norm_oracle(x_q, p.ln.gain.data, p.ln.bias.data)
    kn = layer_norm_oracle(x_kv, p.ln.gain.data, p.ln.bias.data)
    return x_q + multihead_attention_oracle(
        qn, kn,
        p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data,
        p.b_q.data, p.b_k.data, p.b_v.data, p.b_o.data,
        heads, key_mask,
    )


def oracle_ffn(x, p):
    n = layer_norm_oracle(x, p.ln.gain.data, p.ln.bias.data)
    return x + np.maximum(n @ p.w_in.data + p.b_in.data, 0.0) @ p.w_out.data + p.b_out.data


class TestSelfAttend:
    def test_zero_output_projection_is_identity(self):
        rng = np.random.default_rng(60)
        p = init_attention_params(ParamInit(rng=rng), D)
        p.w_o.data[:] = 0.0
        x = rng.normal(size=(5, D))
        out = self_attend(Tensor(x), p, HEADS)
        assert_array_equal(out.data, x)

    def test_single_position_gets_weight_one(self):
        rng = np.random.default_rng(61)
        p = init_attention_params(ParamInit(rng=rng), D)
        x = rng.normal(size=(1, D))
        out = self_attend(Tensor(x), p, HEADS).data
        n = layer_norm_oracle(x, p.ln.gain.data, p.ln.bias.data)
        v = n @ p.w_v.data + p.b_v.data  # attention over one key passes its value through
        want = x + v @ p.w_o.data + p.b_o.data
        assert_allclose(out, want, atol=1e-12)

    def test_matches_per_head_oracle(self):
        rng = np.random.default_rng(62)
        p = init_attention_params(ParamInit(rng=rng), D)
        x = rng.normal(size=(3, D))
        got = self_attend(Tensor(x), p, HEADS).data
        assert_allclose(got, oracle_attend(x, x, p, HEADS), atol=1e-9)

    def test_head_count_must_divide_width(self):
        p = init_attention_params(ParamInit(rng=np.random.default_rng(63)), D)
        with pytest.raises(ValueError):
            self_attend(Tensor(np.zeros((2, D))), p, 3)


class TestCrossAttend:
    def test_zero_other_stream_leaves_residual_only(self):
        rng = np.random.default_rng(64)
        p = init_attention_params(ParamInit(rng=rng), D)
        p.b_v.data[:] = 0.0
        p.b_o.data[:] = 0.0
        x = rng.normal(size=(4, D))
        out = cross_attend(Tensor(x), Tensor(np.zeros((3, D))), p, HEADS)
        assert_allclose(out.data, x, atol=1e-12)

    def test_other_equal_to_x_reduces_to_self_attention(self):
        rng = np.random.default_rng(65)
        p = init_attention_params(ParamInit(rng=rng), D)
        x = Tensor(rng.normal(size=(4, D)))
        assert_array_equal(cross_attend(x, x, p, HEADS).data, self_attend(x, p, HEADS).data)

    def test_matches_oracle(self):
        rng = np.random.default_rng(66)
        p = init_attention_params(ParamInit(rng=rng), D)
        x = rng.normal(size=(4, D))
        other = rng.normal(size=(5, D))
        got = cross_attend(Tensor(x), Tensor(other), p, HEADS).data
        assert_allclose(got, oracle_attend(x, other, p, HEADS), atol=1e-9)

    def test_key_mask_hides_rows(self):
        rng = np.random.default_rng(67)
        p = init_attention_params(ParamInit(rng=rng), D)
        x = rng.normal(size=(3, D))
        other = rng.normal(size=(4, D))
        mask = np.array([True, True, False, False])
        base = cross_attend(Tensor(x), Tensor(other), p, HEADS, key_mask=mask).data
        other2 = other.copy()
        other2[2:] = rng.normal(size=(2, D)) * 9.0  # masked rows: content must not matter
        again = cross_attend(Tensor(x), Tensor(other2), p, HEADS, key_mask=mask).data
        assert_allclose(base, again, atol=1e-12)
        got = cross_attend(Tensor(x), Tensor(other), p, HEADS, key_mask=mask).data
        assert_allclose(got, oracle_attend(x, other, p, HEADS, key_mask=mask), atol=1e-9)


class TestFusionStack:
    def test_zeroed_projections_make_identity(self):
        rng = np.random.default_rng(68)
        layers = [init_fusion_layer(ParamInit(rng=rng), D) for _ in range(3)]
        for layer in layers:
            zero_out_projections(layer)
        z_ts = rng.normal(size=(4, D))
        z_txt = rng.normal(size=(4, D))
        out_ts, out_txt = fusion_stack(Tensor(z_ts), Tensor(z_txt), layers, HEADS)
        assert_array_equal(out_ts.data, z_ts)
        assert_array_equal(out_txt.data, z_txt)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            fusion_stack(Tensor(np.zeros((2, D))), Tensor(np.zeros((2, D))), [], HEADS)

    def test_single_layer_matches_hand_rolled_oracle(self):
        rng = np.random.default_rng(69)
        d, heads = 4, 1
        layer = init_fusion_layer(ParamInit(rng=rng), d)
        z_ts = rng.normal(size=(2, d))
        z_txt = rng.normal(size=(2, d))
        got_ts, got_txt = fusion_stack(Tensor(z_ts), Tensor(z_txt), [layer], heads)
        ts_hat = oracle_attend(z_ts, z_ts, layer.ts_self, heads)
        txt_hat = oracle_attend(z_txt, z_txt, layer.txt_self, heads)
        ts_mix = oracle_attend(ts_hat, txt_hat, layer.ts_cross, heads)
        txt_mix = oracle_attend(txt_hat, ts_hat, layer.txt_cross, heads)
        assert_allclose(got_ts.data, oracle_ffn(ts_mix, layer.ts_ffn), atol=1e-9)
        assert_allclose(got_txt.data, oracle_ffn(txt_mix, layer.txt_ffn), atol=1e-9)

    def test_shapes_preserved_through_layers(self):
        rng = np.random.default_rng(70)
        layers = [init_fusion_layer(ParamInit(rng=rng), D) for _ in range(2)]
        out_ts, out_txt = fusion_stack(
            Tensor(rng.normal(size=(5, D))), Tensor(rng.normal(size=(5, D))), layers, HEADS
        )
        assert out_ts.shape == (5, D)
        assert out_txt.shape == (5, D)

    def test_cross_modal_influence(self):
        # perturbing the text stream must move the ts output already at layer 1
        rng = np.random.default_rng(71)
        layer = init_fusion_layer(ParamInit(rng=rng), D)
        z_ts = Tensor(rng.normal(size=(4, D)))
        z_txt = rng.normal(size=(4, D))
        base, _ = fusion_stack(z_ts, Tensor(z_txt), [layer], HEADS)
        bumped = z_txt.copy()
        bumped[1, 3] += 1e-3
        moved, _ = fusion_stack(z_ts, Tensor(bumped), [layer], HEADS)
        assert not np.allclose(base.data, moved.data)


    @pytest.mark.parametrize("rows", [(3, 1), (np.array([3, 0]), np.array([1, 2]))], ids=["int", "per-row"])
    def test_given_rows_return_the_full_stack_rows(self, rows):
        rng = np.random.default_rng(80)
        layers = [init_fusion_layer(ParamInit(rng=rng), D) for _ in range(2)]
        z_ts = rng.normal(size=(2, 4, D))
        z_txt = rng.normal(size=(2, 3, D))
        mask = np.array([[True, True, False], [True, True, True]])
        full_ts, full_txt = fusion_stack(Tensor(z_ts), Tensor(z_txt), layers, HEADS, txt_key_mask=mask)
        ts_row, txt_row = rows
        got_ts, got_txt = fusion_stack(
            Tensor(z_ts), Tensor(z_txt), layers, HEADS, txt_key_mask=mask, ts_row=ts_row, txt_row=txt_row
        )
        assert got_ts.shape == got_txt.shape == (2, 1, D)
        want_ts = full_ts.data[np.arange(2), np.broadcast_to(ts_row, 2)]
        want_txt = full_txt.data[np.arange(2), np.broadcast_to(txt_row, 2)]
        assert_allclose(got_ts.data[:, 0], want_ts, rtol=0, atol=1e-12)
        assert_allclose(got_txt.data[:, 0], want_txt, rtol=0, atol=1e-12)


class TestSingleStack:
    @pytest.mark.parametrize("row", [2, np.array([0, 4])], ids=["int", "per-stream"])
    def test_given_row_returns_the_full_stack_row(self, row):
        rng = np.random.default_rng(81)
        layers = [init_single_layer(ParamInit(rng=rng), D) for _ in range(2)]
        x = rng.normal(size=(2, 5, D))
        mask = np.array([[True, True, True, False, False], [True] * 5])
        full = single_stack(Tensor(x), layers, HEADS, key_mask=mask).data
        got = single_stack(Tensor(x), layers, HEADS, key_mask=mask, row=row)
        assert got.shape == (2, 1, D)
        assert_allclose(got.data[:, 0], full[np.arange(2), np.broadcast_to(row, 2)], rtol=0, atol=1e-12)

    def test_zeroed_projections_make_identity(self):
        rng = np.random.default_rng(72)
        layers = [init_single_layer(ParamInit(rng=rng), D) for _ in range(2)]
        for layer in layers:
            layer.self_attn.w_o.data[:] = 0.0
            layer.self_attn.b_o.data[:] = 0.0
            layer.ffn.w_out.data[:] = 0.0
            layer.ffn.b_out.data[:] = 0.0
        x = np.random.default_rng(1).normal(size=(3, D))
        assert_array_equal(single_stack(Tensor(x), layers, HEADS).data, x)

    def test_matches_composed_sublayer_oracle(self):
        rng = np.random.default_rng(73)
        layer = init_single_layer(ParamInit(rng=rng), D)
        x = rng.normal(size=(3, D))
        got = single_stack(Tensor(x), [layer], HEADS).data
        want = oracle_ffn(oracle_attend(x, x, layer.self_attn, HEADS), layer.ffn)
        assert_allclose(got, want, atol=1e-9)


class TestClassify:
    def test_zero_weights_emit_bias(self):
        p = ClassifierParams(
            w_hidden=Tensor(np.zeros((2 * D, D))),
            b_hidden=Tensor(np.zeros(D)),
            w_out=Tensor(np.zeros((D, 3))),
            b_out=Tensor(np.array([0.5, -1.0, 2.0])),
        )
        rng = np.random.default_rng(74)
        z_ts, z_txt = Tensor(rng.normal(size=(4, D))), Tensor(rng.normal(size=(4, D)))
        logits = classify(gather_rows(z_ts, 3), gather_rows(z_txt, 3), p)
        assert_allclose(logits.data, [0.5, -1.0, 2.0])

    def test_head_widths(self):
        rng = np.random.default_rng(75)
        z = gather_rows(Tensor(rng.normal(size=(4, D))), 3)
        binary = init_classifier(ParamInit(rng=rng), 2 * D, D, 1)
        assert classify(z, z, binary).shape == (1,)
        multi = init_classifier(ParamInit(rng=rng), 2 * D, D, 25)
        assert classify(z, z, multi).shape == (25,)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(76)
        p = init_classifier(ParamInit(rng=rng), 2 * D, D, 2)
        z_ts = rng.normal(size=(4, D))
        z_txt = rng.normal(size=(4, D))
        got = classify(gather_rows(Tensor(z_ts), 3), gather_rows(Tensor(z_txt), 1), p).data
        joined = np.concatenate([z_ts[3], z_txt[1]])
        want = np.maximum(joined @ p.w_hidden.data + p.b_hidden.data, 0.0) @ p.w_out.data + p.b_out.data
        assert_allclose(got, want, atol=1e-12)

    def test_single_classifier_reads_requested_row(self):
        rng = np.random.default_rng(77)
        p = init_classifier(ParamInit(rng=rng), D, D, 1)
        z = rng.normal(size=(5, D))
        got = classify_single(gather_rows(Tensor(z), 2), p).data
        want = np.maximum(z[2] @ p.w_hidden.data + p.b_hidden.data, 0.0) @ p.w_out.data + p.b_out.data
        assert_allclose(got, want, atol=1e-12)

    def test_streams_of_more_than_one_row_raise_shape_error(self):
        rng = np.random.default_rng(78)
        p = init_classifier(ParamInit(rng=rng), 2 * D, D, 1)
        one, five = Tensor(rng.normal(size=(1, D))), Tensor(rng.normal(size=(5, D)))
        with pytest.raises(ShapeError, match="one row"):
            classify(one, five, p)
        with pytest.raises(ShapeError, match="one row"):
            classify_single(five, init_classifier(ParamInit(rng=rng), D, D, 1))
