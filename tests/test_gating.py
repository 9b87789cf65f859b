"""Gate computation and the convex embedding mix."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mmists.gating import GateParams, compute_gate, init_gate_params, utde_embed
from mmists.tensor import ParamInit, Tape, Tensor

from gradcheck import reduce_sum

ALPHA, D_H = 6, 4


def zero_params(level, d_h=D_H):
    in_w = 2 * d_h if level == "hidden" else 1
    out_w = d_h if level == "hidden" else 1
    return GateParams(
        level=level,
        w_hidden=Tensor(np.zeros((in_w, d_h))),
        b_hidden=Tensor(np.zeros(d_h)),
        w_out=Tensor(np.zeros((d_h, out_w))),
        b_out=Tensor(np.zeros(out_w)),
    )


def random_inputs(rng):
    return Tensor(rng.normal(size=(ALPHA, D_H))), Tensor(rng.normal(size=(ALPHA, D_H)))


class TestComputeGate:
    def test_zero_weights_give_half_everywhere(self):
        rng = np.random.default_rng(50)
        e_imp, e_attn = random_inputs(rng)
        for level in ("patient", "temporal", "hidden"):
            g = compute_gate(e_imp, e_attn, zero_params(level))
            assert_allclose(g.data, 0.5)

    def test_large_output_bias_saturates_to_one(self):
        rng = np.random.default_rng(51)
        e_imp, e_attn = random_inputs(rng)
        for level in ("patient", "temporal", "hidden"):
            p = zero_params(level)
            p.b_out.data[:] = 30.0
            g = compute_gate(e_imp, e_attn, p)
            assert_allclose(g.data, 1.0, atol=1e-9)

    def test_level_shapes_and_open_interval(self):
        rng = np.random.default_rng(52)
        e_imp, e_attn = random_inputs(rng)
        shapes = {"patient": (1, 1), "temporal": (ALPHA, 1), "hidden": (ALPHA, D_H)}
        for level, shape in shapes.items():
            g = compute_gate(e_imp, e_attn, init_gate_params(ParamInit(rng=rng), level, D_H))
            assert g.shape == shape
            assert np.all(g.data > 0.0) and np.all(g.data < 1.0)

    def test_initial_gate_is_exactly_half(self):
        rng = np.random.default_rng(53)
        e_imp, e_attn = random_inputs(rng)
        for level in ("patient", "temporal", "hidden"):
            g = compute_gate(e_imp, e_attn, init_gate_params(ParamInit(rng=rng), level, D_H))
            assert_array_equal(g.data, np.full(g.shape, 0.5))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            compute_gate(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 5))), zero_params("patient"))

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            init_gate_params(ParamInit(rng=np.random.default_rng(0)), "episode", D_H)


class TestUtdeEmbed:
    def test_gate_one_returns_imputation_branch_exactly(self):
        rng = np.random.default_rng(54)
        e_imp, e_attn = random_inputs(rng)
        z = utde_embed(e_imp, e_attn, Tensor(np.ones((1, 1))))
        assert_array_equal(z.data, e_imp.data)

    def test_gate_zero_returns_attention_branch_exactly(self):
        rng = np.random.default_rng(55)
        e_imp, e_attn = random_inputs(rng)
        z = utde_embed(e_imp, e_attn, Tensor(np.zeros((1, 1))))
        assert_array_equal(z.data, e_attn.data)

    def test_half_gate_cancels_opposite_branches(self):
        rng = np.random.default_rng(56)
        e_imp = Tensor(rng.normal(size=(ALPHA, D_H)))
        e_attn = Tensor(-e_imp.data)
        z = utde_embed(e_imp, e_attn, Tensor(np.full((1, 1), 0.5)))
        assert_allclose(z.data, 0.0)

    def test_entrywise_bounds_hold_for_any_gate(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            e_imp, e_attn = random_inputs(rng)
            level = rng.choice(["patient", "temporal", "hidden"])
            shape = {"patient": (1, 1), "temporal": (ALPHA, 1), "hidden": (ALPHA, D_H)}[level]
            g = Tensor(rng.random(shape))
            z = utde_embed(e_imp, e_attn, g).data
            lo = np.minimum(e_imp.data, e_attn.data)
            hi = np.maximum(e_imp.data, e_attn.data)
            assert np.all(z >= lo - 1e-12) and np.all(z <= hi + 1e-12)

    def test_patient_gate_mixes_uniformly(self):
        rng = np.random.default_rng(58)
        e_imp, e_attn = random_inputs(rng)
        p = init_gate_params(ParamInit(rng=rng), "patient", D_H)
        p.w_out = Tensor(rng.normal(size=(D_H, 1)))
        g = compute_gate(e_imp, e_attn, p)
        z = utde_embed(e_imp, e_attn, g).data
        coeff = (z - e_attn.data) / (e_imp.data - e_attn.data)
        assert_allclose(coeff, coeff.flat[0])

    def test_gradient_reaches_both_branches(self):
        rng = np.random.default_rng(59)
        e_imp, e_attn = random_inputs(rng)
        for level in ("patient", "temporal", "hidden"):
            p = init_gate_params(ParamInit(rng=rng), level, D_H)
            p.w_out = Tensor(rng.normal(size=p.w_out.shape))
            with Tape() as tape:
                g = compute_gate(e_imp, e_attn, p)
                z = utde_embed(e_imp, e_attn, g)
                tape.backward(reduce_sum(z * z))
            assert np.any(tape.grad(e_imp) != 0.0)
            assert np.any(tape.grad(e_attn) != 0.0)
            assert np.any(tape.grad(p.w_out) != 0.0)
