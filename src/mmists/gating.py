"""Learned gate that convexly blends the two time-series embeddings at
patient, temporal, or hidden granularity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, concat, linear, reduce_mean, relu, sigmoid

__all__ = ["GATE_LEVELS", "GateParams", "init_gate_params", "compute_gate", "utde_embed"]

GATE_LEVELS = ("patient", "temporal", "hidden")


@dataclass
class GateParams:
    """One-hidden-layer MLP; input/output widths depend on the gate level."""

    level: str
    w_hidden: Tensor  # [in_width x d_h]
    b_hidden: Tensor  # [d_h]
    w_out: Tensor  # [d_h x out_width]
    b_out: Tensor  # [out_width]


def init_gate_params(rng: np.random.Generator, level: str, d_h: int) -> GateParams:
    """Output weights start at zero so the initial gate is exactly 0.5."""
    if level not in GATE_LEVELS:
        raise ValueError(f"gate level must be one of {GATE_LEVELS}, got {level!r}")
    in_width = 2 * d_h if level == "hidden" else 1
    out_width = d_h if level == "hidden" else 1
    return GateParams(
        level=level,
        w_hidden=Tensor(rng.normal(0.0, in_width**-0.5, size=(in_width, d_h))),
        b_hidden=Tensor(np.zeros(d_h)),
        w_out=Tensor(np.zeros((d_h, out_width))),
        b_out=Tensor(np.zeros(out_width)),
    )


def compute_gate(e_imp: Tensor, e_attn: Tensor, params: GateParams) -> Tensor:
    """Gate in (0,1) per episode: [... x 1 x 1] (patient), [... x alpha x 1]
    (temporal), or [... x alpha x d_h] (hidden), for [... x alpha x d_h] branches."""
    if e_imp.shape != e_attn.shape:
        raise ValueError(f"branch shapes disagree: {e_imp.shape} vs {e_attn.shape}")
    joint = concat([e_imp, e_attn], axis=-1)  # [... x alpha x 2d_h]
    if params.level == "patient":
        x = reduce_mean(joint, axis=(-2, -1), keepdims=True)  # [... x 1 x 1]
    elif params.level == "temporal":
        x = reduce_mean(joint, axis=-1, keepdims=True)  # [... x alpha x 1]
    elif params.level == "hidden":
        x = joint
    else:
        raise ValueError(f"unknown gate level {params.level!r}")
    hidden = relu(linear(x, params.w_hidden, params.b_hidden))
    return sigmoid(linear(hidden, params.w_out, params.b_out))


def utde_embed(e_imp: Tensor, e_attn: Tensor, g: Tensor) -> Tensor:
    """Per-entry convex mix g*e_imp + (1-g)*e_attn; g broadcasts by its level."""
    return g * e_imp + (1.0 - g) * e_attn
