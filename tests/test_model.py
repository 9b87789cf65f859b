"""Model assembly: config validation, seeded init, preparation, forward variants."""

import dataclasses
import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mmists.data import (
    DataError,
    Episode,
    GenConfig,
    NormalizationStats,
    NoteEvent,
    TsObservation,
    generate_synthetic,
    normalize,
)
from mmists.model import (
    ConfigError,
    ModelParams,
    RunConfig,
    collate,
    forward,
    init_model,
    prepare_episode,
    single_modality_forward,
    ts_embedding,
)
from mmists import model
from mmists.fusion import classify, classify_single, fusion_stack, single_stack
from mmists.tensor import Tape, Tensor, bce_with_logits, gather_rows, layer_norm

SMALL = dict(
    alpha=6, n_features=3, text_dim=8, d_hidden=8, d_timeembed=4,
    time_heads=2, fusion_layers=2, heads=2, note_budget=3,
)


def small_config(**overrides):
    kw = dict(SMALL, seed=5)
    kw.update(overrides)
    return RunConfig(**kw).validate()


@pytest.fixture(scope="module")
def prepared():
    cfg = small_config()
    eps = generate_synthetic(GenConfig(n_episodes=4, n_features=3, text_dim=8, seed=17))
    neps, stats = normalize(eps, alpha_hours=24.0)
    return [prepare_episode(ep, cfg, stats) for ep in neps], cfg, stats


class TestConfig:
    def test_defaults_validate(self):
        c = RunConfig(seed=1).validate()
        assert (c.d_hidden, c.d_timeembed, c.time_heads, c.fusion_layers) == (64, 64, 8, 3)
        assert (c.batch_size, c.lr) == (32, 4e-4)

    def test_epoch_defaults_depend_on_modality(self):
        assert RunConfig(seed=0, modality="ts").resolved_epochs() == 20
        assert RunConfig(seed=0, modality="fused").resolved_epochs() == 6
        assert RunConfig(seed=0, modality="txt").resolved_epochs() == 6
        assert RunConfig(seed=0, modality="ts", epochs=3).resolved_epochs() == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(alpha=0),
            dict(task="regression"),
            dict(task="binary", n_classes=2),
            dict(task="multilabel", n_classes=1),
            dict(modality="both"),
            dict(ts_embed="gru"),
            dict(gate_level="batch"),
            dict(d_hidden=10, heads=4),
            dict(d_timeembed=1),
            dict(lr=0.0),
            dict(epochs=-1),
            dict(text_irregularity=False, note_budget=30, alpha=24),
            dict(pos_weight=0.0),
            dict(grad_clip=-1.0),
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        kw = dict(SMALL)
        kw.update(overrides)
        with pytest.raises(ConfigError):
            RunConfig(seed=0, **kw).validate()


    @pytest.mark.parametrize("name", ["lr", "alpha_hours", "pos_weight", "grad_clip"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            RunConfig(seed=0, **dict(SMALL, **{name: value})).validate()


class TestInit:
    def test_default_init_peak_holds_one_parameter_buffer(self):
        """init_model allocates the flat buffer before drawing into it:
        tracemalloc's peak stays within 1.25 buffers (2.02 when each tensor
        was drawn into its own array and then concatenated)."""
        config = RunConfig(seed=0)
        nbytes = init_model(config).buffer.nbytes
        tracemalloc.start()
        try:
            init_model(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * nbytes

    def test_same_seed_is_bit_identical(self):
        a = init_model(small_config()).flat()
        b = init_model(small_config()).flat()
        assert a.keys() == b.keys()
        for k in a:
            assert_array_equal(a[k].data, b[k].data)

    def test_different_seeds_differ(self):
        a = init_model(small_config()).flat()
        b = init_model(small_config(seed=6)).flat()
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a)

    def test_bank_is_shared_and_flattened_once(self):
        params = init_model(small_config())
        assert params.ts_interp.bank.omega is params.bank.omega
        assert params.txt_interp.bank.omega is params.bank.omega
        flat = params.flat()
        bank_names = [k for k in flat if flat[k] is params.bank.omega]
        assert bank_names == ["bank.omega"]
        assert "ts_interp.bank.omega" not in flat

    def test_flat_leaves_no_reference_cycle(self):
        # a cycle would keep the map's tensors, and so the parameter buffer,
        # alive after the caller drops them, until the next cyclic collection
        params = init_model(small_config())
        gc.collect()
        gc.disable()
        try:
            params.flat()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_component_init_is_independent_of_other_components(self):
        # growing the fusion stack must not disturb the shared embedding branches
        a = init_model(small_config(fusion_layers=1)).flat()
        b = init_model(small_config(fusion_layers=3)).flat()
        for k in a:
            if k.split(".")[0] in ("bank", "conv_kernel", "conv_bias", "ts_interp", "txt_interp", "gate"):
                assert_array_equal(a[k].data, b[k].data)

    @pytest.mark.parametrize(
        "overrides, names",
        [
            (dict(), ("bank.omega", "conv_kernel", "ts_interp.w_query", "txt_interp.w_out",
                      "gate.w_hidden", "fusion_layers.0.ts_cross.w_q", "fused_head.w_out")),
            (dict(text_irregularity=False), ("note_proj_w", "fusion_layers.1.txt_self.w_o")),
            (dict(modality="ts"), ("bank.phi", "conv_bias", "ts_stack.1.ffn.w_in", "ts_head.b_out")),
            (dict(modality="txt"), ("txt_interp.w_key", "txt_stack.0.self_attn.w_q", "txt_head.b_out")),
        ],
        ids=["fused", "fused-padded", "ts", "txt"],
    )
    def test_flat_covers_every_tensor_field(self, overrides, names):
        params = init_model(small_config(**overrides))
        flat = params.flat()
        reachable = {}

        def walk(obj):
            if isinstance(obj, Tensor):
                reachable[id(obj)] = obj
            elif isinstance(obj, list):
                for item in obj:
                    walk(item)
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    walk(getattr(obj, f.name))

        walk(params)
        assert {id(t) for t in flat.values()} == set(reachable)
        assert len(flat) == len(reachable) > 10
        # a representative of each component family the variant runs
        for name in names:
            assert name in flat, name


def expected_components(modality, ts_embed, text_irregularity):
    """The top-level ModelParams fields a variant runs, written out from the
    forward paths: the time-series stream for fused/ts, the text stream for
    fused/txt, the bank for either stream's mTAND, and one backbone."""
    ts, txt = modality in ("fused", "ts"), modality in ("fused", "txt")
    want = set()
    if ts and ts_embed in ("utde", "imputation"):
        want |= {"conv_kernel", "conv_bias"}
    if ts and ts_embed in ("utde", "mtand"):
        want |= {"bank", "ts_interp"}
    if ts and ts_embed == "utde":
        want.add("gate")
    if txt and text_irregularity:
        want |= {"bank", "txt_interp"}
    if txt and not text_irregularity:
        want |= {"note_proj_w", "note_proj_b"}
    backbone = {
        "fused": {"fusion_layers", "fused_ln_ts", "fused_ln_txt", "fused_head"},
        "ts": {"ts_stack", "ts_ln", "ts_head"},
        "txt": {"txt_stack", "txt_ln", "txt_head"},
    }
    return want | backbone[modality]


VARIANTS = list(
    itertools.product(("fused", "ts", "txt"), ("utde", "imputation", "mtand"), (True, False),
                      ("patient", "temporal", "hidden"))
)


class TestScopedBuild:
    @pytest.mark.parametrize(
        "modality, ts_embed, text_irregularity, gate_level", VARIANTS, ids=lambda v: str(v)
    )
    def test_training_step_reaches_every_built_parameter_and_nothing_else_is_built(
        self, prepared, modality, ts_embed, text_irregularity, gate_level
    ):
        preps, _, _ = prepared
        cfg = small_config(
            modality=modality, ts_embed=ts_embed, text_irregularity=text_irregularity,
            gate_level=gate_level,
        )
        params = init_model(cfg)
        built = {
            f.name for f in dataclasses.fields(params)
            if f.name != "buffer" and getattr(params, f.name) is not None
        }
        assert built == expected_components(modality, ts_embed, text_irregularity)
        flat = params.flat()
        assert {name.split(".")[0] for name in flat} == built
        batch = collate(preps)
        with Tape() as tape:
            tape.backward(bce_with_logits(forward(batch, params, cfg), batch.labels))
        assert [name for name, t in flat.items() if tape.grad_or_none(t) is None] == []
        if "gate" in built:
            w = params.gate.w_hidden.shape
            assert w[0] == (2 * cfg.d_hidden if gate_level == "hidden" else 1)

    def test_default_fused_utde_size(self):
        flat = init_model(RunConfig(seed=0)).flat()
        assert (len(flat), sum(t.size for t in flat.values())) == (180, 552_066)

    def test_every_tensor_views_the_model_buffer_in_flat_order(self):
        params = init_model(RunConfig(seed=0))
        assert params.buffer.shape == (552_066,)
        offset = 0
        for t in params.flat().values():
            assert t.data.base is params.buffer
            assert t.data.ctypes.data == params.buffer.ctypes.data + 8 * offset
            offset += t.size
        assert offset == params.buffer.size

    def test_shared_components_are_bit_identical_across_variants(self):
        fused = init_model(small_config()).flat()
        for overrides in (dict(modality="ts"), dict(modality="ts", ts_embed="mtand"),
                          dict(modality="ts", ts_embed="imputation"), dict(modality="txt")):
            other = init_model(small_config(**overrides)).flat()
            shared = [k for k in other if k in fused]
            assert shared
            for k in shared:
                assert_array_equal(other[k].data, fused[k].data)


class TestPrepare:
    def test_shapes(self, prepared):
        preps, cfg, _ = prepared
        p = preps[0]
        assert p.imputed.shape == (cfg.alpha, cfg.n_features)
        assert p.note_embs.shape[1] == cfg.text_dim
        assert p.note_times.shape[0] == p.note_embs.shape[0] <= cfg.note_budget
        assert p.label.shape == (1,)
        assert len(p.feature_series) == cfg.n_features

    def test_label_length_mismatch_rejected(self, prepared):
        _, cfg, stats = prepared
        eps = generate_synthetic(GenConfig(n_episodes=1, n_features=3, text_dim=8, seed=18))
        neps, _ = normalize(eps, stats=stats)
        bad = dataclasses.replace(neps[0], label=np.array([1, 0]))
        with pytest.raises(DataError):
            prepare_episode(bad, cfg, stats)

    def test_note_free_episode_rejected(self, prepared):
        _, cfg, stats = prepared
        eps = generate_synthetic(GenConfig(n_episodes=1, n_features=3, text_dim=8, seed=18))
        neps, _ = normalize(eps, stats=stats)
        with pytest.raises(DataError, match="no notes"):
            prepare_episode(dataclasses.replace(neps[0], notes=()), cfg, stats)

    def test_stats_width_mismatch_rejected(self, prepared):
        preps, cfg, stats = prepared
        eps = generate_synthetic(GenConfig(n_episodes=1, n_features=3, text_dim=8, seed=18))
        neps, _ = normalize(eps, stats=stats)
        with pytest.raises(DataError, match="one non-zero length"):  # vectors of unequal width
            dataclasses.replace(stats, global_mean=np.array([0.5]))
        wrong = dataclasses.replace(
            stats, feature_min=stats.feature_min[:1], feature_max=stats.feature_max[:1],
            global_mean=stats.global_mean[:1],
        )
        with pytest.raises(DataError):
            prepare_episode(neps[0], cfg, wrong)


class TestForward:
    def test_logit_shapes_per_modality(self, prepared):
        preps, _, _ = prepared
        for modality in ("fused", "ts", "txt"):
            c = small_config(modality=modality)
            logits = forward(preps[0], init_model(c), c)
            assert logits.shape == (1,)

    def test_forward_is_deterministic(self, prepared):
        preps, cfg, _ = prepared
        params = init_model(cfg)
        a = forward(preps[0], params, cfg).data
        b = forward(preps[0], params, cfg).data
        assert_array_equal(a, b)

    def test_padded_note_mode_runs_and_masks(self, prepared):
        preps, _, _ = prepared
        cfg = small_config(text_irregularity=False)
        logits = forward(preps[0], init_model(cfg), cfg)
        assert logits.shape == (1,)
        txt_cfg = small_config(text_irregularity=False, modality="txt")
        out_txt = single_modality_forward(collate(preps[:1]), init_model(txt_cfg), txt_cfg)
        assert out_txt.shape == (1, 1)

    def test_ts_embed_variants_differ(self, prepared):
        preps, cfg, _ = prepared
        params = init_model(cfg)
        outs = {
            v: ts_embedding(collate(preps[:1]), params, small_config(ts_embed=v)).data
            for v in ("utde", "imputation", "mtand")
        }
        assert not np.allclose(outs["imputation"], outs["mtand"])
        assert not np.array_equal(outs["utde"], outs["imputation"])

    def test_gate_override_reproduces_branches_exactly(self, prepared):
        preps, cfg, _ = prepared
        params = init_model(cfg)
        batch = collate(preps[:1])
        imp = ts_embedding(batch, params, small_config(ts_embed="imputation")).data
        att = ts_embedding(batch, params, small_config(ts_embed="mtand")).data
        forced_imp = ts_embedding(batch, params, cfg, gate_override=1.0).data
        forced_att = ts_embedding(batch, params, cfg, gate_override=0.0).data
        assert_array_equal(forced_imp, imp)
        assert_array_equal(forced_att, att)

    def test_note_perturbation_moves_fused_logits(self, prepared):
        preps, cfg, _ = prepared
        params = init_model(cfg)
        base = forward(preps[0], params, cfg).data
        bumped = dataclasses.replace(preps[0], note_embs=preps[0].note_embs + 1e-3)
        moved = forward(bumped, params, cfg).data
        assert not np.allclose(base, moved)

    def test_backward_reaches_all_active_components(self, prepared):
        preps, cfg, _ = prepared
        params = init_model(cfg)
        flat = params.flat()
        with Tape() as tape:
            logits = forward(preps[0], params, cfg)
            tape.backward(bce_with_logits(logits, preps[0].label))
        active = {k: tape.grad(t) for k, t in flat.items()}
        for k in ("bank.omega", "conv_kernel", "ts_interp.w_query", "txt_interp.w_key",
                  "gate.w_out", "fusion_layers.0.ts_self.w_q", "fused_head.w_hidden"):
            assert np.any(active[k] != 0.0), k
        # the single-modality stacks are not part of the fused model
        assert params.ts_head is None and params.txt_stack is None
        assert not any(k.startswith(("ts_stack", "ts_head", "txt_stack", "txt_head")) for k in flat)


def mixed_group(cfg):
    """Three prepared episodes a padded group must keep apart: a feature with
    no observations, unequal observation counts, and 1, 5 and 2 notes."""
    rng = np.random.default_rng(77)

    def episode(i, counts, n_notes):
        obs = tuple(
            TsObservation(f, float(t), float(rng.random()))
            for f, c in enumerate(counts)
            for t in np.sort(rng.random(c))
        )
        notes = tuple(
            NoteEvent(float(t), embedding=rng.normal(size=8)) for t in np.sort(rng.random(n_notes))
        )
        return Episode(f"g{i}", obs, notes, np.array([i % 2]))

    stats = NormalizationStats(np.zeros(3), np.ones(3), np.full(3, 0.4), 24.0)
    eps = [episode(0, (2, 0, 3), 1), episode(1, (5, 1, 1), 5), episode(2, (1, 4, 0), 2)]
    return [prepare_episode(ep, cfg, stats) for ep in eps]


def perturbed_params(cfg):
    """Initial parameters plus noise, so no bias or gate weight is zero and
    padded rows differ from real ones."""
    params = init_model(cfg)
    rng = np.random.default_rng(78)
    for t in params.flat().values():
        t.data += rng.normal(0.0, 0.2, size=t.shape)
    return params


GROUP_VARIANTS = [
    dict(modality="fused"),
    dict(modality="ts"),
    dict(modality="txt"),
    dict(modality="fused", text_irregularity=False),
    dict(modality="txt", text_irregularity=False),
]


class TestGroups:
    def test_collate_pads_and_masks(self):
        cfg = small_config(note_budget=5)
        batch = collate(mixed_group(cfg))
        assert batch.imputed.shape == (3, cfg.alpha, 3)
        assert batch.series.times.shape == (3, 3, 5)
        assert_array_equal(batch.series.mask.sum(axis=2), [[2, 0, 3], [5, 1, 1], [1, 4, 0]])
        assert batch.note_embs.shape == (3, 5, 8)
        assert_array_equal(batch.note_mask.sum(axis=1), [1, 5, 2])
        assert_array_equal(batch.labels, [[0.0], [1.0], [0.0]])

    @pytest.mark.parametrize("overrides", GROUP_VARIANTS, ids=lambda o: "-".join(map(str, o.values())))
    def test_group_logits_equal_single_episode_logits(self, overrides):
        cfg = small_config(note_budget=5, **overrides)
        preps = mixed_group(cfg)
        params = perturbed_params(cfg)
        grouped = forward(collate(preps), params, cfg).data
        assert grouped.shape == (3, 1)
        for b, prep in enumerate(preps):
            single = forward(prep, params, cfg).data
            assert single.shape == (1,)
            assert np.max(np.abs(grouped[b] - single)) <= 1e-12

    @pytest.mark.parametrize("overrides", GROUP_VARIANTS, ids=lambda o: "-".join(map(str, o.values())))
    def test_group_gradient_is_mean_of_episode_gradients(self, overrides):
        cfg = small_config(note_budget=5, **overrides)
        preps = mixed_group(cfg)
        params = perturbed_params(cfg)
        flat = params.flat()
        batch = collate(preps)
        with Tape() as tape:
            tape.backward(bce_with_logits(forward(batch, params, cfg), batch.labels))
        grouped = {k: tape.grad(t).copy() for k, t in flat.items()}
        mean = {k: np.zeros_like(t.data) for k, t in flat.items()}
        for prep in preps:
            with Tape() as tape:
                tape.backward(bce_with_logits(forward(prep, params, cfg), prep.label))
            for k, t in flat.items():
                mean[k] += tape.grad(t) / len(preps)
        assert max(np.max(np.abs(grouped[k] - mean[k])) for k in flat) <= 1e-12
        assert any(np.any(g != 0.0) for g in grouped.values())

    @pytest.mark.parametrize("member", [0, 1, 2])
    def test_padded_note_mode_reads_the_last_real_note(self, member):
        cfg = small_config(note_budget=5, modality="txt", text_irregularity=False)
        preps = mixed_group(cfg)
        params = perturbed_params(cfg)
        prep = preps[member]
        l = prep.note_times.shape[0]
        z = np.zeros((cfg.alpha, cfg.d_hidden))
        z[:l] = prep.note_embs @ params.note_proj_w.data + params.note_proj_b.data
        h = single_stack(Tensor(z), params.txt_stack, cfg.heads, key_mask=np.arange(cfg.alpha) < l)
        h = layer_norm(h, params.txt_ln.gain, params.txt_ln.bias)
        want = classify_single(gather_rows(h, l - 1), params.txt_head).data
        assert np.max(np.abs(forward(collate(preps), params, cfg).data[member] - want)) <= 1e-12


def full_row_logits(batch, params, cfg):
    """The forward pass without row pruning: every stack keeps all alpha rows,
    then the final layer norm, then the classifier at the rows it reads."""
    if cfg.modality == "fused":
        z_ts = ts_embedding(batch, params, cfg)
        z_txt, mask, txt_row = model._txt_stream(batch, params, cfg)
        z_ts, z_txt = fusion_stack(z_ts, z_txt, params.fusion_layers, cfg.heads, txt_key_mask=mask)
        assert z_ts.shape[-2] == z_txt.shape[-2] == cfg.alpha
        z_ts = layer_norm(z_ts, params.fused_ln_ts.gain, params.fused_ln_ts.bias)
        z_txt = layer_norm(z_txt, params.fused_ln_txt.gain, params.fused_ln_txt.bias)
        return classify(gather_rows(z_ts, cfg.alpha - 1), gather_rows(z_txt, txt_row), params.fused_head)
    if cfg.modality == "ts":
        z, mask, row = ts_embedding(batch, params, cfg), None, cfg.alpha - 1
        stack, ln, head = params.ts_stack, params.ts_ln, params.ts_head
    else:
        z, mask, row = model._txt_stream(batch, params, cfg)
        stack, ln, head = params.txt_stack, params.txt_ln, params.txt_head
    h = single_stack(z, stack, cfg.heads, key_mask=mask)
    assert h.shape[-2] == cfg.alpha
    return classify_single(gather_rows(layer_norm(h, ln.gain, ln.bias), row), head)


class TestRowPruning:
    """The last stack layer computes only the rows the classifier reads."""

    @pytest.mark.parametrize("overrides", GROUP_VARIANTS, ids=lambda o: "-".join(map(str, o.values())))
    def test_pruned_logits_equal_full_row_logits(self, overrides):
        cfg = small_config(note_budget=5, **overrides)
        params = perturbed_params(cfg)
        batch = collate(mixed_group(cfg))
        pruned = forward(batch, params, cfg).data
        full = full_row_logits(batch, params, cfg).data
        assert pruned.shape == full.shape == (3, 1)
        assert np.max(np.abs(pruned - full)) <= 1e-12

    @pytest.mark.parametrize("overrides", GROUP_VARIANTS, ids=lambda o: "-".join(map(str, o.values())))
    def test_pruned_gradients_equal_full_row_gradients(self, overrides):
        cfg = small_config(note_budget=5, **overrides)
        params = perturbed_params(cfg)
        flat = params.flat()
        batch = collate(mixed_group(cfg))
        grads = []
        for logits_of in (forward, full_row_logits):
            with Tape() as tape:
                tape.backward(bce_with_logits(logits_of(batch, params, cfg), batch.labels))
            grads.append({k: tape.grad(t).copy() for k, t in flat.items()})
        pruned, full = grads
        assert max(np.max(np.abs(pruned[k] - full[k])) for k in flat) <= 1e-12
        stack = {"fused": "fusion_layers", "ts": "ts_stack", "txt": "txt_stack"}[cfg.modality]
        last_layer = f"{stack}.{cfg.fusion_layers - 1}."
        assert any(np.any(g != 0.0) for k, g in pruned.items() if k.startswith(last_layer))


class TestTapeStructure:
    @staticmethod
    def record_group(modality: str, traced: list | None = None) -> tuple[Tape, ModelParams]:
        """The forward and the loss of a default-config group of 8, on one
        tape; ``traced`` gets the bytes tracemalloc sees allocated, and still
        held, between the tape's start and the loss."""
        config = RunConfig(seed=0, modality=modality)
        episodes = generate_synthetic(GenConfig(n_episodes=8, task="xor_fusion", seed=5))
        normed, stats = normalize(episodes, alpha_hours=config.alpha_hours, n_features=config.n_features)
        group = collate([prepare_episode(ep, config, stats) for ep in normed])
        params = init_model(config)
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            bce_with_logits(forward(group, params, config), group.labels, config.pos_weight)
            if traced is not None:
                traced.append(tracemalloc.get_traced_memory()[0] - before)
        return tape, params

    @pytest.mark.parametrize("modality, ops", [("fused", 97), ("ts", 45), ("txt", 34)])
    def test_group_records_only_its_ops(self, modality, ops):
        """Only ops are nodes: the ~180 parameters a group reads are referred
        to by the nodes that read them, not recorded as nodes of their own."""
        tape, _ = self.record_group(modality)
        assert len(tape.nodes) == ops
        assert all(node.backward is not None for node in tape.nodes)

    def test_fused_group_tape_holds_under_2_4_parameter_buffers(self):
        """What a default fused group of 8 keeps for backward: each attention
        sublayer keeps its two inputs and its softmax weights, not q, k, v or
        the merged head outputs, so the live tape stays under 2.4 parameter
        buffers (3.2 when the sublayer kept them)."""
        traced: list[int] = []
        tracemalloc.start()
        try:
            _, params = self.record_group("fused", traced)
        finally:
            tracemalloc.stop()
        assert traced[0] < 2.4 * params.buffer.nbytes, traced[0] / params.buffer.nbytes

    @pytest.mark.parametrize("modality, kernels", [("fused", 2), ("ts", 1), ("txt", 1)])
    def test_each_mtand_stream_is_one_node_and_only_it_reads_the_bank(self, modality, kernels):
        """A default-config group of 8: each mTAND stream (the grid's and the
        keys' Time2Vec, both projections, the scores, the softmax and the
        mix) records one ``segment_time_attention`` node, and no other node
        reads the shared bank."""
        tape, params = self.record_group(modality)
        assert [node.op for node in tape.nodes].count("segment_time_attention") == kernels
        bank = {params.bank.omega, params.bank.phi}
        assert {node.op for node in tape.nodes if bank & set(node.inputs)} == {"segment_time_attention"}
