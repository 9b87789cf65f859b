"""Property tests for the attention sublayer op over random shapes, head
counts, key masks and non-identity projections with biases, fully masked key
sets included, and over keys moved in ways that must not change the output:
masked keys scaled far up, and one offset added to all of a member's keys,
which shifts each query's scores on that member by the same amount.

The keys' and values' input is [k_part | v_part]: w_k reads only the first
block and w_v only the second, so the moves act on the keys alone, and the
values can be set apart from them."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmists.tensor import Tensor, attention
from oracles import multihead_attention_oracle


@st.composite
def attention_cases(draw):
    """(q_in [G x a x d], kv_in [G x l x 2d], projections, heads, key_mask
    [G x l], moved): ``projections`` maps w_q, b_q, ..., b_o to random
    arrays, w_k [2d x d] with a zero lower block and w_v [2d x d] with a zero
    upper block; ``moved`` is kv_in with the masked keys scaled and a
    per-member offset added to the key block, which must give the same
    output as kv_in."""
    seed = draw(st.integers(0, 2**32 - 1))
    group = draw(st.integers(1, 3))
    a = draw(st.integers(1, 5))
    l = draw(st.integers(1, 6))
    heads = draw(st.integers(1, 4))
    dk = draw(st.integers(1, 4))
    d = heads * dk
    rng = np.random.default_rng(seed)
    q_in = rng.normal(size=(group, a, d)) * 2.0
    kv_in = np.concatenate([rng.normal(size=(group, l, d)) * 2.0, rng.normal(size=(group, l, d))], axis=-1)
    zero = np.zeros((d, d))
    projections = {
        "w_q": rng.normal(size=(d, d)) * d**-0.5,
        "b_q": rng.normal(size=d),
        "w_k": np.vstack([rng.normal(size=(d, d)) * d**-0.5, zero]),
        "b_k": rng.normal(size=d),
        "w_v": np.vstack([zero, rng.normal(size=(d, d)) * d**-0.5]),
        "b_v": rng.normal(size=d),
        "w_o": rng.normal(size=(d, d)) * d**-0.5,
        "b_o": rng.normal(size=d),
    }
    mask = rng.random((group, l)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    moved = kv_in * np.where(mask, 1.0, draw(st.sampled_from([1.0, 1e6])))[..., None]
    moved[..., :d] += rng.normal(size=(group, 1, d)) * draw(st.sampled_from([0.0, 1e3]))
    return q_in, kv_in, projections, heads, mask, moved


def attend(q_in, kv_in, p, heads, mask):
    names = ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o")
    return attention(Tensor(q_in), Tensor(kv_in), *(Tensor(p[n]) for n in names), heads, mask).data


@settings(max_examples=200, deadline=None)
@given(attention_cases())
def test_attention_matches_per_head_oracle(case):
    q_in, kv_in, p, heads, mask, moved = case
    got = attend(q_in, moved, p, heads, mask)
    for member in range(q_in.shape[0]):
        want = multihead_attention_oracle(
            q_in[member], kv_in[member],
            p["w_q"], p["w_k"], p["w_v"], p["w_o"],
            p["b_q"], p["b_k"], p["b_v"], p["b_o"],
            heads=heads,
            key_mask=mask[member],
        )
        assert np.max(np.abs(got[member] - want)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(attention_cases())
def test_attention_rows_are_convex_combinations_of_value_rows(case):
    """The merged head outputs are linear in the values, so a probe whose
    values are the indicator of key j (value block set to it, w_v reading it
    as is, no value bias) and whose output projection is the identity reads
    out every head's weight on key j; the weights depend only on the queries
    and the key block, which the probe shares. The weights are non-negative,
    zero on masked keys and sum to one, or are all zero for a member without
    a valid key, and the output is those weights applied to the value rows,
    then the output projection."""
    q_in, _, p, heads, mask, moved = case
    group, a, d = q_in.shape
    l = moved.shape[1]
    dk = d // heads
    got = attend(q_in, moved, p, heads, mask)
    reader = {**p, "w_v": np.vstack([np.zeros((d, d)), np.eye(d)]), "b_v": np.zeros(d),
              "w_o": np.eye(d), "b_o": np.zeros(d)}
    weights = np.empty((group, a, heads, l))  # [G x a x H x l]
    for j in range(l):
        probe_in = moved.copy()
        probe_in[..., d:] = 0.0
        probe_in[:, j, d:] = 1.0
        probe = attend(q_in, probe_in, reader, heads, mask)
        weights[..., j] = probe.reshape(group, a, heads, dk)[..., 0]
    assert (weights >= 0.0).all()
    assert (weights[np.broadcast_to(~mask[:, None, None, :], weights.shape)] == 0.0).all()
    sums = weights.sum(axis=-1)
    has_key = np.broadcast_to(mask.any(axis=-1)[:, None, None], sums.shape)
    np.testing.assert_allclose(sums, np.where(has_key, 1.0, 0.0), atol=1e-12)
    values = moved[..., d:] @ p["w_v"][d:] + p["b_v"]  # [G x l x d]
    blended = np.einsum("gahl,glhc->gahc", weights, values.reshape(group, l, heads, dk))
    np.testing.assert_allclose(got, blended.reshape(group, a, d) @ p["w_o"] + p["b_o"], atol=1e-10)
