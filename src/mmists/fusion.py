"""Interleaved multimodal transformer: per-layer self-attention on each stream,
cross-attention against the other stream's fresh self-attention output, and a
position-wise feed-forward, all pre-layer-norm with residuals.

Every function takes [T x d] streams or [G x T x d] groups of them; key
masks and stack rows follow the same leading axes.

The stack itself is residual-pure (zeroing every sublayer's output projection
makes it the identity); the model applies a final layer norm separately.

Given the rows the classifier reads, a stack computes its last layer only for
them: the self-attentions still run on every row, because they are the other
stream's keys and values (or, in a single stack, the keys and values of the
last self-attention), but the queries, output projections, residuals and FFNs
after them act on one row per stream, and the stack returns [... x 1 x d].
Every one of those steps is row by row, so the kept rows are the same
function of the input as in the full stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ParamInit, ShapeError, Tensor, attention, concat, gather_rows, layer_norm, linear, relu, reshape

__all__ = [
    "AttentionParams",
    "FfnParams",
    "FusionLayerParams",
    "SingleLayerParams",
    "LayerNormParams",
    "ClassifierParams",
    "init_attention_params",
    "init_ffn_params",
    "init_fusion_layer",
    "init_single_layer",
    "init_layer_norm",
    "init_classifier",
    "self_attend",
    "cross_attend",
    "ffn_block",
    "fusion_stack",
    "single_stack",
    "classify",
    "classify_single",
]


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class AttentionParams:
    """One attention sublayer: its pre-norm plus q/k/v/output projections."""

    ln: LayerNormParams
    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor


@dataclass
class FfnParams:
    """Position-wise feed-forward sublayer with its pre-norm."""

    ln: LayerNormParams
    w_in: Tensor  # [d_h x d_ffn]
    b_in: Tensor
    w_out: Tensor  # [d_ffn x d_h]
    b_out: Tensor


@dataclass
class FusionLayerParams:
    ts_self: AttentionParams
    txt_self: AttentionParams
    ts_cross: AttentionParams  # ts queries, txt keys/values
    txt_cross: AttentionParams  # txt queries, ts keys/values
    ts_ffn: FfnParams
    txt_ffn: FfnParams


@dataclass
class SingleLayerParams:
    self_attn: AttentionParams
    ffn: FfnParams


@dataclass
class ClassifierParams:
    """Two fully-connected layers: input -> d_h (relu) -> logits."""

    w_hidden: Tensor
    b_hidden: Tensor
    w_out: Tensor
    b_out: Tensor


def init_layer_norm(init: ParamInit, d: int) -> LayerNormParams:
    return LayerNormParams(gain=init.full(1.0, (d,)), bias=init.full(0.0, (d,)))


def init_attention_params(init: ParamInit, d_h: int) -> AttentionParams:
    def w():
        return init.normal(d_h**-0.5, (d_h, d_h))
    def b():
        return init.full(0.0, (d_h,))
    return AttentionParams(
        ln=init_layer_norm(init, d_h),
        w_q=w(), b_q=b(), w_k=w(), b_k=b(), w_v=w(), b_v=b(), w_o=w(), b_o=b(),
    )


def init_ffn_params(init: ParamInit, d_h: int, d_ffn: int | None = None) -> FfnParams:
    d_ffn = 4 * d_h if d_ffn is None else d_ffn
    return FfnParams(
        ln=init_layer_norm(init, d_h),
        w_in=init.normal(d_h**-0.5, (d_h, d_ffn)),
        b_in=init.full(0.0, (d_ffn,)),
        w_out=init.normal(d_ffn**-0.5, (d_ffn, d_h)),
        b_out=init.full(0.0, (d_h,)),
    )


def init_fusion_layer(init: ParamInit, d_h: int) -> FusionLayerParams:
    return FusionLayerParams(
        ts_self=init_attention_params(init, d_h),
        txt_self=init_attention_params(init, d_h),
        ts_cross=init_attention_params(init, d_h),
        txt_cross=init_attention_params(init, d_h),
        ts_ffn=init_ffn_params(init, d_h),
        txt_ffn=init_ffn_params(init, d_h),
    )


def init_single_layer(init: ParamInit, d_h: int) -> SingleLayerParams:
    return SingleLayerParams(
        self_attn=init_attention_params(init, d_h),
        ffn=init_ffn_params(init, d_h),
    )


def init_classifier(init: ParamInit, d_in: int, d_h: int, n_out: int) -> ClassifierParams:
    return ClassifierParams(
        w_hidden=init.normal(d_in**-0.5, (d_in, d_h)),
        b_hidden=init.full(0.0, (d_h,)),
        w_out=init.normal(d_h**-0.5, (d_h, n_out)),
        b_out=init.full(0.0, (n_out,)),
    )


def _multi_head(
    q_in: Tensor,
    kv_in: Tensor,
    p: AttentionParams,
    heads: int,
    key_mask: np.ndarray | None,
) -> Tensor:
    """Scaled dot-product attention split over heads; key_mask [... x l] hides kv rows."""
    q = linear(q_in, p.w_q, p.b_q)
    k = linear(kv_in, p.w_k, p.b_k)
    v = linear(kv_in, p.w_v, p.b_v)
    return linear(attention(q, k, v, heads, key_mask), p.w_o, p.b_o)


def self_attend(x: Tensor, p: AttentionParams, heads: int, key_mask=None) -> Tensor:
    """Pre-norm bidirectional self-attention with residual."""
    normed = layer_norm(x, p.ln.gain, p.ln.bias)
    return x + _multi_head(normed, normed, p, heads, key_mask)


def cross_attend(x: Tensor, other: Tensor, p: AttentionParams, heads: int, key_mask=None) -> Tensor:
    """Queries from x, keys/values from the other stream; both pre-normed, residual to x."""
    q_in = layer_norm(x, p.ln.gain, p.ln.bias)
    kv_in = layer_norm(other, p.ln.gain, p.ln.bias)
    return x + _multi_head(q_in, kv_in, p, heads, key_mask)


def ffn_block(x: Tensor, p: FfnParams) -> Tensor:
    normed = layer_norm(x, p.ln.gain, p.ln.bias)
    return x + linear(relu(linear(normed, p.w_in, p.b_in)), p.w_out, p.b_out)


def fusion_stack(
    z_ts: Tensor,
    z_txt: Tensor,
    layers: list[FusionLayerParams],
    heads: int,
    txt_key_mask: np.ndarray | None = None,
    ts_row=None,
    txt_row=None,
) -> tuple[Tensor, Tensor]:
    """J interleaved layers; txt_key_mask hides padded note rows from attention.

    A stream given a row (an int, or one index per stream of a group) comes
    back as that row only, [... x 1 x d]; without one it keeps every row.
    """
    if not layers:
        raise ValueError("fusion stack needs at least one layer")
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        ts_hat = self_attend(z_ts, layer.ts_self, heads)
        txt_hat = self_attend(z_txt, layer.txt_self, heads, key_mask=txt_key_mask)
        ts_q = ts_hat if i < last or ts_row is None else gather_rows(ts_hat, ts_row)
        txt_q = txt_hat if i < last or txt_row is None else gather_rows(txt_hat, txt_row)
        ts_mixed = cross_attend(ts_q, txt_hat, layer.ts_cross, heads, key_mask=txt_key_mask)
        txt_mixed = cross_attend(txt_q, ts_hat, layer.txt_cross, heads)
        z_ts = ffn_block(ts_mixed, layer.ts_ffn)
        z_txt = ffn_block(txt_mixed, layer.txt_ffn)
    return z_ts, z_txt


def single_stack(
    x: Tensor,
    layers: list[SingleLayerParams],
    heads: int,
    key_mask: np.ndarray | None = None,
    row=None,
) -> Tensor:
    """Self-attention-only backbone for single-modality models; given a row,
    it returns only that row, [... x 1 x d], as fusion_stack does."""
    if not layers:
        raise ValueError("backbone needs at least one layer")
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        if i < last or row is None:
            x = self_attend(x, layer.self_attn, heads, key_mask=key_mask)
        else:  # the same sublayer for one query row: layer norm acts row by row
            x = cross_attend(gather_rows(x, row), x, layer.self_attn, heads, key_mask=key_mask)
        x = ffn_block(x, layer.ffn)
    return x


def classify(z_ts: Tensor, z_txt: Tensor, p: ClassifierParams) -> Tensor:
    """Concat the two streams' single rows [... x 1 x d] -> FC -> logits [... x n_out]."""
    return _head([z_ts, z_txt], p)


def classify_single(z: Tensor, p: ClassifierParams) -> Tensor:
    return _head([z], p)


def _head(streams: list[Tensor], p: ClassifierParams) -> Tensor:
    """The stacks pick the row the classifier reads, so each stream has one."""
    if any(z.ndim < 2 or z.shape[-2] != 1 for z in streams):
        raise ShapeError(f"the classifier reads streams of one row, got {[z.shape for z in streams]}")
    x = concat(streams, axis=-1) if len(streams) > 1 else streams[0]
    hidden = relu(linear(x, p.w_hidden, p.b_hidden))
    logits = linear(hidden, p.w_out, p.b_out)
    return reshape(logits, x.shape[:-2] + logits.shape[-1:])
