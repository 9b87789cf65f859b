"""The shared Time2Vec helper: sin/cos from the half-angle tangent, and the
slope backward rebuilds from the tangents the forward keeps.

``tensor._time2vec`` takes sin of the periodic angles as 2 tau / (1 + tau^2)
with tau = tan(angle / 2), and, while a tape records, keeps the tangents and
the linear column; ``tensor._time2vec_rebuild`` gives back the embedding and
the slope (1 on the linear column, cos = (1 - tau^2) / (1 + tau^2) on the
others) from them, so backward is one product with the slope. These tests
hold both against numpy's ``sin``/``cos`` over negative and large angles and
at the poles of tau, and hold the rebuilt-slope gradients against a backward
that recomputes the angles.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmists import data, model, tensor
from mmists.tensor import Tape, Tensor, bce_with_logits, segment_time_attention

from gradcheck import reduce_sum

BOUND = 1e-15
LIMIT = 1e4
POLE_K = int((LIMIT / math.pi - 1) // 2)  # (2k + 1) pi stays inside [-LIMIT, LIMIT]


def _ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


# doubles at and next to (2k + 1) pi, where tan(angle / 2) has its poles
pole_angles = st.builds(
    lambda k, steps: _ulps_from((2 * k + 1) * math.pi, steps),
    st.integers(-POLE_K - 1, POLE_K),
    st.integers(-3, 3),
)
angles = st.one_of(
    st.floats(-LIMIT, LIMIT, allow_nan=False),
    st.floats(-10.0, 10.0, allow_nan=False),
    pole_angles,
)


def _angle_rows(values):
    """(rows, omega, phi) whose Time2Vec angles are ``values`` exactly: one
    time t = 1 and phi = 0, so the angle is omega * 1 + 0. Column 0 (the
    linear one) takes the first value as well."""
    omega = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return tensor._time2vec_rows([1.0]), omega, np.zeros_like(omega)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(angles, min_size=2, max_size=40),
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=40, max_size=40),
)
@example([5e-324, -5e-324, 1e-310, -0.0], [1.0] * 40)  # subnormal angles, the linear one too
def test_embedding_slope_and_gradient_match_sin_cos(values, g_values):
    rows, omega, phi = _angle_rows(values)
    theta = omega[0]
    g = np.asarray(g_values[: theta.size]).reshape(1, 1, -1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        emb, kept = tensor._time2vec(rows, omega, phi, keep=True)
        rebuilt, slope = tensor._time2vec_rebuild(kept)
        g_omega, g_phi = tensor._time2vec_backward(rows, slope.copy(), g)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    np.testing.assert_array_equal(rebuilt, emb)
    assert emb[0, 0, 0] == theta[0] and slope[0, 0, 0] == 1.0
    assert np.max(np.abs(emb[0, 0, 1:] - np.sin(theta[1:]))) <= BOUND
    assert np.max(np.abs(slope[0, 0, 1:] - np.cos(theta[1:]))) <= BOUND
    # the rows are (1, 1), so both bank gradients are g * d embedding / d angle
    want = g[0, 0] * np.r_[1.0, np.cos(theta[1:])]
    assert np.max(np.abs(g_omega[0] - want)) <= BOUND
    assert np.max(np.abs(g_phi[0] - want)) <= BOUND


@settings(max_examples=100, deadline=None)
@given(st.lists(angles, min_size=2, max_size=16), st.floats(-1.0, 1.0, allow_nan=False))
def test_kernel_bank_gradient_matches_cos(values, weight):
    """The same through the tape, in ``segment_time_attention``: a query at
    t = 1 attends to keys at t = 0 and t = 1 under one head, so the query and
    the second key have the periodic angles ``values`` (the linear one is set
    to 0.5, which keeps the softmax off saturation). Its omega and phi
    gradients, both shares, equal those from slopes recomputed with np.cos."""
    _, omega_d, _ = _angle_rows(values)
    omega_d[0, 0] = 0.5
    omega, phi = Tensor(omega_d), Tensor(np.zeros_like(omega_d))
    d_v = omega_d.shape[1]
    w_query, w_key = Tensor(np.eye(d_v)[None]), Tensor(np.eye(d_v)[None])

    def gradients():
        with Tape() as tape:
            out = segment_time_attention([1.0], w_query, w_key, omega, phi, [[0.0, 1.0]], [[True, True]], [[[0.0], [1.0]]])
            tape.backward(reduce_sum(out * weight))
        return tape.grad(omega), tape.grad(phi)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kept = gradients()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    with pytest.MonkeyPatch.context() as patch:
        pending, rebuilt = _patch_cos_reference(patch)
        recomputed = gradients()
    assert len(rebuilt) == 2 and not pending  # the query's slope and the keys'
    for got, want in zip(kept, recomputed):
        assert np.max(np.abs(got - want)) <= BOUND


def test_poles_give_exact_limits():
    """At the doubles nearest (2k + 1) pi, tau is huge but finite: sin is
    the tiny residual np.sin gives and cos is -1."""
    k = np.arange(-POLE_K - 1, POLE_K + 1)
    rows, omega, phi = _angle_rows(np.r_[0.0, (2 * k + 1) * np.pi])
    emb, kept = tensor._time2vec(rows, omega, phi, keep=True)
    _, slope = tensor._time2vec_rebuild(kept)
    assert np.all(np.isfinite(emb)) and np.all(np.isfinite(slope))
    assert np.max(np.abs(emb[0, 0, 1:] - np.sin(omega[0, 1:]))) <= 1e-27
    assert np.all(slope[0, 0, 1:] == -1.0)


def test_forward_only_keeps_no_slope_and_equal_embedding():
    rng = np.random.default_rng(7)
    rows = tensor._time2vec_rows(rng.uniform(0.0, 1.0, 50))
    omega, phi = rng.normal(0.0, 30.0, (4, 9)), rng.normal(0.0, 3.0, (4, 9))
    emb, kept = tensor._time2vec(rows, omega, phi)
    assert kept is None
    emb_kept, (tangents, linear_column) = tensor._time2vec(rows, omega, phi, keep=True)
    np.testing.assert_array_equal(emb, emb_kept)
    assert tangents.shape == emb.shape and linear_column.shape == emb.shape[:-1]
    rebuilt, slope = tensor._time2vec_rebuild((tangents, linear_column))
    np.testing.assert_array_equal(rebuilt, emb)
    assert slope is tangents  # the slope overwrites the kept tangents
    # the linear column equals the whole-angle product bit for bit
    np.testing.assert_array_equal(emb[..., 0], (rows @ np.stack((omega, phi), axis=1))[..., 0])


def _patch_cos_reference(monkeypatch):
    """Make the slope rebuild recompute the slope from the angles with
    np.cos, as a backward without kept tangents would; the forward and the
    rebuilt embedding stay the shipped ones. The patched ``_time2vec`` notes
    each taped call's angles under its kept tangents array, which the rebuild
    overwrites in place with the slope. Returns the angles not yet rebuilt
    and the list of rebuilt slopes' shapes."""
    shipped_forward, shipped_rebuild = tensor._time2vec, tensor._time2vec_rebuild
    angles_of, rebuilt = {}, []

    def forward(tk, od, pd, keep=False):
        emb, kept = shipped_forward(tk, od, pd, keep)
        if kept is not None:
            angles_of[id(kept[0])] = tk @ np.stack((od, pd), axis=1)
        return emb, kept

    def rebuild(kept):
        emb, slope = shipped_rebuild(kept)
        angles = angles_of.pop(id(slope))
        np.cos(angles[..., 1:], out=slope[..., 1:])
        slope[..., 0] = 1.0
        rebuilt.append(slope.shape)
        return emb, slope

    monkeypatch.setattr(tensor, "_time2vec", forward)
    monkeypatch.setattr(tensor, "_time2vec_rebuild", rebuild)
    return angles_of, rebuilt


def _group_gradients(config, group, params):
    with Tape() as tape:
        logits = model.forward(group, params, config)
        tape.backward(bce_with_logits(logits, group.labels, config.pos_weight))
    return {name: tape.grad(t) for name, t in params.flat().items()}


@pytest.mark.parametrize("modality", ["fused", "ts"])
def test_kept_slope_gradients_equal_recompute_reference(monkeypatch, modality):
    """Every parameter gradient of a default-config group of 8 (the
    ``segment_time_attention`` of each mTAND stream on the path, which embeds
    both the grid and the keys) equals the gradient from recomputed angles."""
    config = model.RunConfig(seed=0, modality=modality, ts_embed="utde")
    episodes = data.generate_synthetic(data.GenConfig(n_episodes=8, task="xor_fusion", seed=5))
    normed, stats = data.normalize(episodes, alpha_hours=config.alpha_hours, n_features=config.n_features)
    group = model.collate([model.prepare_episode(ep, config, stats) for ep in normed])
    params = model.init_model(config)

    kept = _group_gradients(config, group, params)
    pending, rebuilt = _patch_cos_reference(monkeypatch)
    recomputed = _group_gradients(config, group, params)
    # the grid's slope and the observation keys' (and, when fused, the grid's
    # and the note keys' again), each from np.cos
    assert len(rebuilt) == (4 if modality == "fused" else 2) and not pending

    assert np.any(kept["bank.omega"] != 0.0)
    for name, g in kept.items():
        assert np.max(np.abs(g - recomputed[name]), initial=0.0) <= BOUND, name
