"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Each test prints one `[criterion NN] ... PASS/FAIL` line on the real stdout
(visible in any pytest run) and then asserts the stated bound. The two
synthetic-learning experiments are built once in module fixtures and shared
by the criteria that read them.
"""

import dataclasses
import sys
import time

import numpy as np
import pytest

from mmists.data import (
    Episode,
    GenConfig,
    NormalizationStats,
    NoteEvent,
    TsObservation,
    generate_synthetic,
    group_by_feature,
)
from mmists.fusion import cross_attend, init_attention_params, self_attend
from mmists.gating import utde_embed
from mmists.harness import evaluate, load_checkpoint, save_checkpoint, train
from mmists.imputation import ReferenceGrid, bin_series, impute
from mmists.metrics import auroc, aupr
from mmists.model import (
    RunConfig,
    collate,
    forward,
    init_model,
    prepare_episode,
    ts_embedding,
)
from mmists.mtand import (
    init_mtand_params,
    init_time2vec_bank,
    mtand_ts,
    mtand_txt,
    pad_series,
)
from mmists.tensor import (
    Tape,
    Tensor,
    attention,
    bce_with_logits,
    causal_conv1d,
    concat,
    layer_norm,
    linear,
    neg,
    reduce_mean,
    relu,
    reshape,
    segment_time_attention,
    sigmoid,
)
import conftest
from test_segment_attention import SERIES_MASK, padded
from gradcheck import finite_difference_gradients, reduce_sum, relative_error, sin, transpose
from oracles import (
    auroc_pairs,
    aupr_prefix,
    layer_norm_oracle,
    multihead_attention_oracle,
    time_attention_oracle,
)


def _announce(num: int, slug: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {slug}: {'PASS' if ok else 'FAIL'} {detail}"
    conftest.record_criterion_line(line)
    print(line, file=sys.__stdout__, flush=True)
    return line


# ------------------------------------------------------------------ fixtures

def _norm_stats(n_features: int, mean: float = 0.5) -> NormalizationStats:
    return NormalizationStats(
        feature_min=np.zeros(n_features),
        feature_max=np.ones(n_features),
        global_mean=np.full(n_features, mean),
        alpha_hours=8.0,
    )


def _small_fused_config() -> RunConfig:
    return RunConfig(
        seed=2,
        modality="fused",
        ts_embed="utde",
        alpha=3,
        n_features=2,
        text_dim=8,
        d_hidden=8,
        d_timeembed=4,
        time_heads=2,
        fusion_layers=2,
        heads=2,
        conv_kernel=2,
        note_budget=3,
        alpha_hours=8.0,
    )


def _small_episode() -> Episode:
    obs = (
        TsObservation(0, 0.10, 0.8),
        TsObservation(0, 0.55, 0.3),
        TsObservation(1, 0.40, 0.6),
        TsObservation(1, 0.90, 0.1),
    )
    rng = np.random.default_rng(123)
    notes = (
        NoteEvent(0.3, embedding=rng.normal(size=8)),
        NoteEvent(0.7, embedding=rng.normal(size=8)),
    )
    return Episode("acc-ep", obs, notes, np.array([1]))


@pytest.fixture(scope="module")
def ts_experiment():
    """ts_only at full stated scale: 2000/500/500, d_m=4, alpha=24, sparsity 0.3,
    three embedding variants x three seeds."""
    t0 = time.time()
    eps = generate_synthetic(
        GenConfig(n_episodes=3000, n_features=4, sparsity=0.3, task="ts_only", seed=101)
    )
    gen_seconds = time.time() - t0
    tr, va, te = eps[:2000], eps[2000:2500], eps[2500:]
    base = RunConfig(
        seed=0, modality="ts", ts_embed="utde", alpha=24, n_features=4,
        d_hidden=16, d_timeembed=8, time_heads=2, heads=2, fusion_layers=1,
        batch_size=32, lr=2e-3, epochs=5,
    )
    out = {"gen_seconds": gen_seconds, "test_labels": np.stack([ep.label for ep in te])}
    for embed in ("utde", "imputation", "mtand"):
        t0 = time.time()
        aurocs = []
        for seed in (0, 1, 2):
            ckpt = train(dataclasses.replace(base, ts_embed=embed, seed=seed), tr, va)
            aurocs.append(evaluate(ckpt, te).auroc)
        out[embed] = {"aurocs": aurocs, "seconds": time.time() - t0}
    return out


@pytest.fixture(scope="module")
def xor_experiment():
    """xor_fusion at the same scale: fused vs single-modality models, three seeds."""
    t0 = time.time()
    eps = generate_synthetic(
        GenConfig(n_episodes=3000, n_features=4, sparsity=0.3, task="xor_fusion", seed=202)
    )
    tr, va, te = eps[:2000], eps[2000:2500], eps[2500:]
    base = RunConfig(
        seed=0, modality="fused", ts_embed="utde", alpha=24, n_features=4, text_dim=16,
        d_hidden=16, d_timeembed=8, time_heads=2, heads=2, fusion_layers=1,
        batch_size=32, lr=2e-3, epochs=6,
    )
    out = {}
    for modality in ("fused", "ts", "txt"):
        aurocs = []
        for seed in (0, 1, 2):
            ckpt = train(dataclasses.replace(base, modality=modality, seed=seed), tr, va)
            aurocs.append(evaluate(ckpt, te).auroc)
        out[modality] = aurocs
    out["seconds"] = time.time() - t0
    return out


# ------------------------------------------------------------------ criterion 1

def _grad_suite_ops(rng: np.random.Generator) -> float:
    """Finite-difference check of every differentiable operation; worst rel err."""
    worst = 0.0

    def check(params: dict[str, Tensor], loss_fn) -> None:
        nonlocal worst
        with Tape() as tape:
            tape.backward(loss_fn())
        tape_grads = {k: tape.grad(t) for k, t in params.items()}
        fd = finite_difference_gradients(lambda: loss_fn().item(), params)
        for k in params:
            worst = max(worst, relative_error(tape_grads[k], fd[k]))

    x = Tensor(rng.normal(size=(3, 4)))
    y = Tensor(rng.normal(size=(3, 4)))
    row = Tensor(rng.normal(size=(4,)))
    check({"x": x, "y": y, "row": row}, lambda: reduce_sum((x + row) * y - x / 2.5 + neg(y)))
    check({"x": x, "y": y}, lambda: reduce_sum(sin(x) * sigmoid(y)))
    z = Tensor(rng.normal(size=(3, 4)) + np.where(rng.random((3, 4)) < 0.5, -0.6, 0.6))
    check({"z": z, "y": y}, lambda: reduce_sum(relu(z) * y))
    v = Tensor(rng.normal(size=(1, 4)))
    check({"x": x, "v": v}, lambda: reduce_sum(reduce_mean(x, axis=0, keepdims=True) * v))
    cat_w = np.linspace(-1.0, 1.0, 24).reshape(3, 8)  # no draw: later inputs stay as they were
    check({"x": x, "y": y}, lambda: reduce_sum(concat([x, y], axis=1) * cat_w))
    w = rng.normal(size=(3, 4))
    check({"x": x}, lambda: reduce_sum(transpose(reshape(x, (4, 3)), (1, 0)) * w))
    gain = Tensor(rng.normal(size=(4,)) * 0.1 + 1.0)
    bias = Tensor(rng.normal(size=(4,)) * 0.1)
    check(
        {"x": x, "gain": gain, "bias": bias, "y": y},
        lambda: reduce_sum(layer_norm(x, gain, bias) * y),
    )
    sig = Tensor(rng.normal(size=(5, 2)))
    ker = Tensor(rng.normal(size=(3, 2, 4)))
    cb = Tensor(rng.normal(size=(4,)))
    out_w = Tensor(rng.normal(size=(5, 4)))
    check(
        {"sig": sig, "ker": ker, "cb": cb, "out_w": out_w},
        lambda: reduce_sum(causal_conv1d(sig, ker, cb) * out_w),
    )
    lin_x = Tensor(rng.normal(size=(2, 3, 4)))
    lin_w = Tensor(rng.normal(size=(4, 5)))
    lin_b = Tensor(rng.normal(size=(5,)))
    check(
        {"lin_x": lin_x, "lin_w": lin_w, "lin_b": lin_b},
        lambda: reduce_sum(sin(linear(lin_x, lin_w, lin_b))),
    )
    att_q = Tensor(rng.normal(size=(2, 3, 4)))
    att_k = Tensor(rng.normal(size=(2, 5, 4)))
    att_v = Tensor(rng.normal(size=(2, 5, 4)))
    key_mask = np.array([[True, False, True, True, False], [False] * 5])  # member 1: no valid key
    att_w = rng.normal(size=(2, 3, 4))
    check(
        {"att_q": att_q, "att_k": att_k, "att_v": att_v},
        lambda: reduce_sum(sin(attention(att_q, att_k, att_v, 2, key_mask)) * att_w),
    )
    logits = Tensor(rng.normal(size=(4,)))
    targets = np.array([1.0, 0.0, 1.0, 0.0])
    check({"logits": logits}, lambda: bce_with_logits(logits, targets))
    check({"logits": logits}, lambda: bce_with_logits(logits, targets, pos_weight=2.0))
    seg_w_query = Tensor(rng.normal(size=(2, 4, 4)))
    seg_w_key = Tensor(rng.normal(size=(2, 4, 4)))
    omega = Tensor(rng.normal(size=(2, 4)) * 3.0)
    phi = Tensor(rng.normal(size=(2, 4)))
    query_times = rng.random(3)
    seg_times = padded(SERIES_MASK, rng.random(6))  # five series; 1 and 4: no key
    seg_values = padded(SERIES_MASK, rng.normal(size=(6, 2)))
    # the keys' share of phi's linear column is exactly 0 (it shifts every
    # score of a series alike); small weights keep the central differences'
    # rounding there under relative_error's 1e-6 floor. They are drawn
    # [V x a x series x c] and laid out as the output's rows.
    seg_w = np.swapaxes(rng.normal(size=(2, 3, 5, 2)) * 0.1, 0, 1).reshape(3, -1)
    check(
        {"w_query": seg_w_query, "w_key": seg_w_key, "omega": omega, "phi": phi},
        lambda: reduce_sum(
            sin(
                segment_time_attention(
                    query_times, seg_w_query, seg_w_key, omega, phi, seg_times, SERIES_MASK, seg_values
                )
            )
            * seg_w
        ),
    )
    return worst


def test_criterion_01_gradient_suite():
    t0 = time.time()
    worst_ops = _grad_suite_ops(np.random.default_rng(2024))

    config = _small_fused_config()
    stats = _norm_stats(2, mean=0.4)
    prep = prepare_episode(_small_episode(), config, stats)
    params = init_model(config)
    inactive = ("ts_stack", "ts_ln", "ts_head", "txt_stack", "txt_ln", "txt_head")
    active = {
        name: t
        for name, t in params.flat().items()
        if not name.startswith(inactive)
    }

    def loss_fn():
        return bce_with_logits(forward(prep, params, config), prep.label)

    with Tape() as tape:
        tape.backward(loss_fn())
    tape_grads = {k: tape.grad(t) for k, t in active.items()}
    fd = finite_difference_gradients(lambda: loss_fn().item(), active)
    worst_model = max(relative_error(tape_grads[k], fd[k]) for k in active)

    elapsed = time.time() - t0
    n_checked = sum(t.data.size for t in active.values())
    ok = worst_ops < 1e-4 and worst_model < 1e-4 and elapsed < 60.0
    line = _announce(
        1,
        "gradient suite",
        ok,
        f"ops_rel_err={worst_ops:.2e} fused_model_rel_err={worst_model:.2e} "
        f"params={n_checked} elapsed={elapsed:.1f}s (bounds: 1e-4, 60s)",
    )
    assert ok, line


def test_group_gradient_suite():
    """Criterion 01's model check on a padded 2-episode group: the second
    episode has one observation, an unobserved feature and a single note."""
    config = _small_fused_config()
    stats = _norm_stats(2, mean=0.4)
    other = Episode(
        "acc-ep2",
        (TsObservation(0, 0.25, 0.5),),
        (NoteEvent(0.6, embedding=np.random.default_rng(124).normal(size=8)),),
        np.array([0]),
    )
    batch = collate([prepare_episode(ep, config, stats) for ep in (_small_episode(), other)])
    params = init_model(config)
    inactive = ("ts_stack", "ts_ln", "ts_head", "txt_stack", "txt_ln", "txt_head")
    active = {name: t for name, t in params.flat().items() if not name.startswith(inactive)}

    def loss_fn():
        return bce_with_logits(forward(batch, params, config), batch.labels)

    with Tape() as tape:
        tape.backward(loss_fn())
    tape_grads = {k: tape.grad(t) for k, t in active.items()}
    fd = finite_difference_gradients(lambda: loss_fn().item(), active)
    worst = max(relative_error(tape_grads[k], fd[k]) for k in active)
    assert worst < 1e-4, f"group rel err {worst:.2e}"


# ------------------------------------------------------------------ criterion 2

def test_criterion_02_hourly_imputation_example():
    m = 0.37
    ep = Episode(
        "worked",
        (
            TsObservation(0, 1.2 / 4.0, 10.0),
            TsObservation(0, 1.5 / 4.0, 8.0),
            TsObservation(0, 3.7 / 4.0, 12.0),
        ),
        (NoteEvent(0.5, text="n"),),
        np.array([0]),
    )
    stats = NormalizationStats(
        feature_min=np.zeros(1), feature_max=np.ones(1),
        global_mean=np.array([m]), alpha_hours=4.0,
    )
    got = impute(bin_series(group_by_feature(ep, 1), ReferenceGrid(4), ep.episode_id), stats).data[:, 0]
    ok = np.array_equal(got, [m, 8.0, 8.0, 12.0])
    line = _announce(2, "hourly worked example", ok, f"got={got.tolist()} want=[{m}, 8.0, 8.0, 12.0]")
    assert ok, line


# ------------------------------------------------------------------ criterion 3

def _t2v_np(times: np.ndarray, omega: np.ndarray, phi: np.ndarray) -> np.ndarray:
    raw = times[:, None] * omega[None, :] + phi[None, :]
    out = raw.copy()
    out[:, 1:] = np.sin(raw[:, 1:])
    return out


def _head_interpolations(alpha: int, times: np.ndarray, values: np.ndarray, params) -> np.ndarray:
    """Every head's interpolation of one series [l x 1] onto the grid,
    [alpha x V], through the shipping path: ``mtand_ts`` on a one-feature
    series, its output projection replaced by the identity so that column v
    is head v's attention-weighted mix, unprojected."""
    v = params.bank.n_heads
    params.w_out = Tensor(np.eye(v))
    params.b_out = Tensor(np.zeros(v))
    return mtand_ts(pad_series([[(times, values[:, 0])]]), ReferenceGrid(alpha), params).data[0]


def test_criterion_03_attention_oracles():
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(20):
        alpha = int(rng.integers(1, 5))
        l = int(rng.integers(1, 6))
        bank = init_time2vec_bank(np.random.default_rng(500 + i), 2, 4)
        params = init_mtand_params(np.random.default_rng(600 + i), bank, 1, 4)
        times = np.sort(rng.random(l))
        values = rng.normal(size=(l, 1))
        got = _head_interpolations(alpha, times, values, params)
        for head in range(2):
            omega = bank.omega.data[head]
            phi = bank.phi.data[head]
            want = time_attention_oracle(
                _t2v_np(ReferenceGrid(alpha).points, omega, phi),
                _t2v_np(times, omega, phi),
                values,
                params.w_query.data[head],
                params.w_key.data[head],
            )
            worst = max(worst, float(np.max(np.abs(got[:, head : head + 1] - want))))

    for i in range(20):
        alpha = int(rng.integers(1, 5))
        l = int(rng.integers(1, 6))
        p = init_attention_params(np.random.default_rng(700 + i), 8)
        x = rng.normal(size=(alpha, 8))
        other = rng.normal(size=(l, 8))

        def mha(q_in, kv_in, key_mask=None):
            return multihead_attention_oracle(
                q_in, kv_in,
                p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data,
                p.b_q.data, p.b_k.data, p.b_v.data, p.b_o.data,
                heads=2, key_mask=key_mask,
            )

        ln = lambda arr: layer_norm_oracle(arr, p.ln.gain.data, p.ln.bias.data)
        got_self = self_attend(Tensor(x), p, heads=2).data
        want_self = x + mha(ln(x), ln(x))
        worst = max(worst, float(np.max(np.abs(got_self - want_self))))

        mask = rng.random(l) < 0.7
        mask[int(rng.integers(l))] = True  # keep at least one key
        got_cross = cross_attend(Tensor(x), Tensor(other), p, heads=2, key_mask=mask).data
        want_cross = x + mha(ln(x), ln(other), key_mask=mask)
        worst = max(worst, float(np.max(np.abs(got_cross - want_cross))))

    ok = worst < 1e-9
    line = _announce(3, "attention oracles", ok, f"max_abs_err={worst:.2e} (bound 1e-9)")
    assert ok, line


# ------------------------------------------------------------------ criterion 4

def test_criterion_04_metric_oracles():
    rng = np.random.default_rng(4)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 101))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)  # heavy ties
        worst = max(worst, abs(auroc(scores, labels) - auroc_pairs(scores, labels)))
    for _ in range(100):
        n = int(rng.integers(1, 101))
        labels = rng.integers(0, 2, size=n)
        labels[int(rng.integers(n))] = 1
        scores = np.round(rng.random(n), 1)
        worst = max(worst, abs(aupr(scores, labels) - aupr_prefix(scores, labels)))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    line = _announce(
        4, "metric oracles", ok,
        f"max_abs_err={worst:.2e} elapsed={elapsed:.2f}s (bounds: 1e-9, 10s)",
    )
    assert ok, line


# ------------------------------------------------------------------ criterion 5

def test_criterion_05_gate_extremes():
    config = _small_fused_config()
    stats = _norm_stats(2)
    prep = prepare_episode(_small_episode(), config, stats)
    params = init_model(config)
    utde_cfg = dataclasses.replace(config, ts_embed="utde")
    imp_cfg = dataclasses.replace(config, ts_embed="imputation")
    attn_cfg = dataclasses.replace(config, ts_embed="mtand")

    batch = collate([prep])
    forced_one = ts_embedding(batch, params, utde_cfg, gate_override=1.0).data[0]
    forced_zero = ts_embedding(batch, params, utde_cfg, gate_override=0.0).data[0]
    imp_only = ts_embedding(batch, params, imp_cfg).data[0]
    attn_only = ts_embedding(batch, params, attn_cfg).data[0]

    ok = np.array_equal(forced_one, imp_only) and np.array_equal(forced_zero, attn_only)
    line = _announce(
        5, "gate extremes", ok,
        f"g=1 bit-equal to imputation stream: {np.array_equal(forced_one, imp_only)}; "
        f"g=0 bit-equal to interpolation stream: {np.array_equal(forced_zero, attn_only)}",
    )
    assert ok, line


# ------------------------------------------------------------------ criterion 6

def test_criterion_06_convexity_invariants():
    rng = np.random.default_rng(6)
    mix_violations = 0
    for i in range(10_000):
        a, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        e_imp = Tensor(rng.normal(size=(a, d)))
        e_attn = Tensor(rng.normal(size=(a, d)))
        g = Tensor(rng.random([(1, 1), (a, 1), (a, d)][i % 3]))
        out = utde_embed(e_imp, e_attn, g).data
        lo = np.minimum(e_imp.data, e_attn.data)
        hi = np.maximum(e_imp.data, e_attn.data)
        if not ((lo <= out) & (out <= hi)).all():
            mix_violations += 1

    interp_violations = 0
    for i in range(10_000):
        l = int(rng.integers(1, 7))
        alpha = int(rng.integers(1, 5))
        bank = init_time2vec_bank(np.random.default_rng(i), 2, 4)
        params = init_mtand_params(np.random.default_rng(i + 1), bank, 1, 4)
        times = np.sort(rng.random(l))
        values = rng.normal(size=(l, 1))
        out = _head_interpolations(alpha, times, values, params)
        if not ((values.min() <= out).all() and (out <= values.max()).all()):
            interp_violations += 1

    ok = mix_violations == 0 and interp_violations == 0
    line = _announce(
        6, "convexity invariants", ok,
        f"mix_violations={mix_violations}/10000 interpolation_violations={interp_violations}/10000",
    )
    assert ok, line


# ------------------------------------------------------------------ criterion 7

def test_criterion_07_single_modality_learning(ts_experiment):
    aurocs = ts_experiment["utde"]["aurocs"]
    mean_auroc = float(np.mean(aurocs))
    budget = ts_experiment["gen_seconds"] + ts_experiment["utde"]["seconds"]
    labels = ts_experiment["test_labels"][:, 0]
    majority = auroc(np.zeros_like(labels, dtype=float), labels)  # constant scores
    ok = mean_auroc >= 0.90 and budget < 600.0 and majority == 0.5
    line = _announce(
        7, "single-modality learning", ok,
        f"mean_test_auroc={mean_auroc:.4f} seeds={[f'{a:.4f}' for a in aurocs]} "
        f"majority_baseline={majority} elapsed={budget:.0f}s (bounds: >=0.90, 600s)",
    )
    assert ok, line


# ------------------------------------------------------------------ criterion 8

def test_criterion_08_fusion_synergy(xor_experiment):
    fused = float(np.mean(xor_experiment["fused"]))
    ts_only = float(np.mean(xor_experiment["ts"]))
    txt_only = float(np.mean(xor_experiment["txt"]))
    elapsed = xor_experiment["seconds"]
    ok = fused >= 0.85 and ts_only <= 0.65 and txt_only <= 0.65 and elapsed < 900.0
    line = _announce(
        8, "fusion synergy", ok,
        f"fused={fused:.4f} ts_only={ts_only:.4f} txt_only={txt_only:.4f} "
        f"elapsed={elapsed:.0f}s (bounds: fused>=0.85, singles<=0.65, 900s)",
    )
    assert ok, line


# ------------------------------------------------------------------ criterion 9

def test_criterion_09_gated_blend_dominance(ts_experiment):
    means = {k: float(np.mean(ts_experiment[k]["aurocs"])) for k in ("utde", "imputation", "mtand")}
    bound = max(means["imputation"], means["mtand"]) - 0.01
    ok = means["utde"] >= bound
    line = _announce(
        9, "gated-blend dominance", ok,
        f"utde={means['utde']:.4f} imputation={means['imputation']:.4f} "
        f"mtand={means['mtand']:.4f} (bound: utde >= max(others) - 0.01)",
    )
    assert ok, line


# ------------------------------------------------------------------ criterion 10

def test_criterion_10_determinism_and_round_trip(tmp_path):
    eps = generate_synthetic(GenConfig(n_episodes=70, task="ts_only", seed=55))
    tr, va, te = eps[:45], eps[45:58], eps[58:]
    config = RunConfig(
        seed=5, modality="ts", ts_embed="utde", alpha=6, n_features=4,
        d_hidden=8, d_timeembed=4, time_heads=1, heads=1, fusion_layers=1,
        batch_size=16, lr=2e-3, epochs=2,
    )
    runs = []
    for _ in range(2):
        losses, vals = [], []
        ckpt = train(config, tr, va, loss_trace=losses, val_trace=vals)
        rep = evaluate(ckpt, te)
        runs.append((losses, vals, rep))
    same_traces = runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1]
    r0, r1 = runs[0][2], runs[1][2]
    same_reports = (r0.f1, r0.aupr, r0.auroc) == (r1.f1, r1.aupr, r1.auroc)

    ckpt = train(config, tr, va)
    before = evaluate(ckpt, te)
    save_checkpoint(tmp_path / "acc.ckpt", ckpt)
    after = evaluate(load_checkpoint(tmp_path / "acc.ckpt"), te)
    same_round_trip = (before.f1, before.aupr, before.auroc) == (after.f1, after.aupr, after.auroc)

    ok = same_traces and same_reports and same_round_trip
    line = _announce(
        10, "determinism and round trip", ok,
        f"traces_identical={same_traces} reports_identical={same_reports} "
        f"save_load_identical={same_round_trip}",
    )
    assert ok, line


# ------------------------------------------------------------------ criterion 11

def test_criterion_11_shared_bank_gradient_additivity():
    rng = np.random.default_rng(11)
    bank = init_time2vec_bank(np.random.default_rng(900), 2, 4)
    ts_params = init_mtand_params(np.random.default_rng(901), bank, 2, 8)
    txt_params = init_mtand_params(np.random.default_rng(902), bank, 8, 8)
    grid = ReferenceGrid(3)
    series = pad_series([[
        (np.sort(rng.random(4)), rng.normal(size=4)),
        (np.sort(rng.random(3)), rng.normal(size=3)),
    ]])
    note_times = np.sort(rng.random(3))
    note_embs = rng.normal(size=(3, 8))

    def ts_loss():
        return reduce_sum(mtand_ts(series, grid, ts_params) * 1.7)

    def txt_loss():
        return reduce_sum(mtand_txt(note_times, note_embs, grid, txt_params) * 0.6)

    def bank_grads(loss_fn) -> dict[str, np.ndarray]:
        with Tape() as tape:
            tape.backward(loss_fn())
        # read (and copy) before the bank joins another tape
        return {"omega": tape.grad(bank.omega).copy(), "phi": tape.grad(bank.phi).copy()}

    joint = bank_grads(lambda: ts_loss() + txt_loss())
    ts_only = bank_grads(ts_loss)
    txt_only = bank_grads(txt_loss)
    summed = {key: ts_only[key] + txt_only[key] for key in joint}
    worst = max(
        float(np.max(np.abs(joint[k] - summed[k]))) for k in ("omega", "phi")
    )
    ok = worst <= 1e-12
    line = _announce(
        11, "shared-bank gradient additivity", ok, f"max_abs_gap={worst:.2e} (bound 1e-12)"
    )
    assert ok, line
