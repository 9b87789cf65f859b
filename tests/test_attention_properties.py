"""Property tests for the fused attention kernel over random shapes, head
counts and key masks, fully masked key sets included, and over keys moved in
ways that must not change the output: masked keys scaled far up, and one
offset added to all of a member's keys, which shifts each query's scores on
that member by the same amount."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmists.tensor import Tensor, attention
from oracles import multihead_attention_oracle


@st.composite
def attention_cases(draw):
    """(q [G x a x d], k, v [G x l x d], heads, key_mask [G x l], moved):
    ``moved`` is k with the masked keys scaled and a per-member offset added,
    which must give the same output as k."""
    seed = draw(st.integers(0, 2**32 - 1))
    group = draw(st.integers(1, 3))
    a = draw(st.integers(1, 5))
    l = draw(st.integers(1, 6))
    heads = draw(st.integers(1, 4))
    dk = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(group, a, heads * dk)) * 2.0
    k = rng.normal(size=(group, l, heads * dk)) * 2.0
    v = rng.normal(size=(group, l, heads * dk))
    mask = rng.random((group, l)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    moved = k * np.where(mask, 1.0, draw(st.sampled_from([1.0, 1e6])))[..., None]
    moved += rng.normal(size=(group, 1, heads * dk)) * draw(st.sampled_from([0.0, 1e3]))
    return q, k, v, heads, mask, moved


@settings(max_examples=200, deadline=None)
@given(attention_cases())
def test_attention_matches_per_head_oracle(case):
    q, k, v, heads, mask, moved = case
    d = q.shape[-1]
    got = attention(Tensor(q), Tensor(moved), Tensor(v), heads, mask).data
    # the oracle projects one [l x 2d] input: its first d columns are k, the rest v
    eye, zero = np.eye(d), np.zeros((d, d))
    for member in range(q.shape[0]):
        want = multihead_attention_oracle(
            q[member],
            np.concatenate([k[member], v[member]], axis=1),
            eye,
            np.vstack([eye, zero]),
            np.vstack([zero, eye]),
            eye,
            np.zeros(d), np.zeros(d), np.zeros(d), np.zeros(d),
            heads=heads,
            key_mask=mask[member],
        )
        assert np.max(np.abs(got[member] - want)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(attention_cases())
def test_attention_rows_are_convex_combinations_of_value_rows(case):
    """Attention is linear in v, so value rows set to the indicator of key j
    read out every head's weight on key j. The weights are non-negative, zero
    on masked keys and sum to one, or are all zero for a member without a
    valid key, and the output is those weights applied to the value rows."""
    q, _, v, heads, mask, moved = case
    group, l, d = v.shape
    dk = d // heads
    got = attention(Tensor(q), Tensor(moved), Tensor(v), heads, mask).data
    weights = np.empty(got.shape[:2] + (heads, l))  # [G x a x H x l]
    for j in range(l):
        indicator = np.zeros_like(v)
        indicator[:, j, :] = 1.0
        probe = attention(Tensor(q), Tensor(moved), Tensor(indicator), heads, mask).data
        weights[..., j] = probe.reshape(group, -1, heads, dk)[..., 0]
    assert (weights >= 0.0).all()
    assert (weights[np.broadcast_to(~mask[:, None, None, :], weights.shape)] == 0.0).all()
    sums = weights.sum(axis=-1)
    has_key = np.broadcast_to(mask.any(axis=-1)[:, None, None], sums.shape)
    np.testing.assert_allclose(sums, np.where(has_key, 1.0, 0.0), atol=1e-12)
    blended = np.einsum("gahl,glhc->gahc", weights, v.reshape(group, l, heads, dk))
    np.testing.assert_allclose(got, blended.reshape(got.shape), atol=1e-10)
