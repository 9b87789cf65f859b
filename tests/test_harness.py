"""Training-loop behavior: determinism, checkpoint selection, round trips."""

import dataclasses
import itertools
import json
import tracemalloc
import zlib

import numpy as np
import pytest

from mmists import harness, model
from mmists.data import DataError, GenConfig, NormalizationStats, generate_synthetic, normalize, save_episodes
from mmists.harness import (
    Checkpoint,
    NumericalError,
    aggregate_reports,
    evaluate,
    load_checkpoint,
    predict,
    run_seeds,
    save_checkpoint,
    train,
)
from mmists.metrics import EvalReport, evaluate_scores
from mmists.model import RunConfig, forward, init_model, prepare_episode
from mmists.tensor import ParamInit, Tape, bce_with_logits, buffer_views

from conftest import checkpoint_arrays
from oracles import init_buffer_by_concatenation


SMALL = dict(
    modality="ts",
    ts_embed="utde",
    alpha=6,
    n_features=4,
    d_hidden=8,
    d_timeembed=4,
    time_heads=1,
    heads=1,
    fusion_layers=1,
    batch_size=16,
    lr=2e-3,
    epochs=2,
)


def small_config(**overrides) -> RunConfig:
    kw = dict(SMALL, seed=0)
    kw.update(overrides)
    return RunConfig(**kw)


@pytest.fixture(scope="module")
def splits():
    eps = generate_synthetic(GenConfig(n_episodes=90, task="ts_only", seed=41))
    return eps[:60], eps[60:75], eps[75:]


# ------------------------------------------------------------------ training

def test_epochs_zero_returns_scored_initialization(splits):
    tr, va, _ = splits
    config = small_config(epochs=0)
    ckpt = train(config, tr, va)
    assert ckpt.epoch == 0
    init_flat, arrays = init_model(config).flat(), checkpoint_arrays(ckpt)
    assert list(arrays) == list(init_flat)
    for name, t in init_flat.items():
        np.testing.assert_array_equal(arrays[name], t.data)
    # the stored metric really is the validation score of the initialization
    assert ckpt.metric_name == "f1"
    assert evaluate(ckpt, va).f1 == ckpt.metric_value


def test_identical_runs_are_bit_identical(splits):
    tr, va, te = splits
    traces = []
    reports = []
    for _ in range(2):
        losses, vals = [], []
        ckpt = train(small_config(), tr, va, loss_trace=losses, val_trace=vals)
        traces.append((losses, vals))
        reports.append(evaluate(ckpt, te))
    assert traces[0][0] == traces[1][0]  # per-batch losses, exact
    assert traces[0][1] == traces[1][1]  # per-epoch validation metric, exact
    a, b = reports
    assert (a.f1, a.aupr, a.auroc) == (b.f1, b.aupr, b.auroc)


def test_seed_changes_the_run(splits):
    tr, va, _ = splits
    l0, l1 = [], []
    train(small_config(seed=0), tr, va, loss_trace=l0)
    train(small_config(seed=1), tr, va, loss_trace=l1)
    assert l0 != l1


def test_best_checkpoint_is_earliest_maximum(splits):
    tr, va, _ = splits
    vals = []
    ckpt = train(small_config(epochs=4), tr, va, val_trace=vals)
    assert ckpt.metric_value == max(vals)
    assert ckpt.epoch == int(np.argmax(vals))  # first index attaining the max
    # running best never decreases
    best = np.maximum.accumulate(vals)
    assert list(best) == sorted(best)


def test_tied_epochs_keep_the_earliest(splits, monkeypatch):
    """With every epoch scoring the same, training returns epoch 0 and its
    value: a later epoch must beat the best, not only equal it."""
    monkeypatch.setattr(harness, "_selection_metric", lambda scores, labels, task: 0.25)
    tr, va, _ = splits
    vals = []
    ckpt = train(small_config(epochs=3), tr, va, val_trace=vals)
    assert vals == [0.25] * 4
    assert ckpt.epoch == 0 and ckpt.metric_value == 0.25
    np.testing.assert_array_equal(ckpt.buffer, init_model(small_config(epochs=3)).buffer)


@pytest.fixture(scope="module")
def fused_splits():
    eps = generate_synthetic(GenConfig(n_episodes=24, task="xor_fusion", seed=5))
    return eps[:16], eps[16:]


def fused_config(seed: int, epochs: int) -> RunConfig:
    return RunConfig(seed=seed, epochs=epochs, batch_size=8, fusion_layers=1)


def test_initialization_best_after_a_step_is_redrawn_from_the_seed(fused_splits):
    config = fused_config(seed=0, epochs=1)
    losses = []
    ckpt = train(config, *fused_splits, loss_trace=losses)
    assert ckpt.epoch == 0 and losses  # steps were taken, yet epoch 0 scored best
    np.testing.assert_array_equal(ckpt.buffer, init_model(config).buffer)


def test_redraw_of_the_initialization_runs_without_the_optimizer_state(fused_splits, monkeypatch):
    """When epoch 0 scores best, the parameters are redrawn from the seed
    once training ends, after the gradient buffer and both Adam moments are
    freed: under 2.5 parameter buffers are live when the redraw starts (the
    parameters, the data; 4 and more when the optimizer state was still
    held)."""
    config = fused_config(seed=0, epochs=1)
    live = []

    def init_model_reading_tracemalloc(c):
        live.append(tracemalloc.get_traced_memory()[0])
        return init_model(c)

    monkeypatch.setattr(harness, "init_model", init_model_reading_tracemalloc)
    tracemalloc.start()
    try:
        ckpt = train(config, *fused_splits)
    finally:
        tracemalloc.stop()
    assert ckpt.epoch == 0 and len(live) == 2  # the initialization, then its redraw
    assert live[1] < 2.5 * ckpt.buffer.nbytes, live[1] / ckpt.buffer.nbytes


@pytest.mark.parametrize("seed", range(4))
def test_fused_training_peak_stays_within_a_parameter_multiple(fused_splits, seed):
    """Parameters, gradient, two Adam moments and one group's tape, with no
    copy of the initialization: tracemalloc's peak over a one-epoch fused run
    stays below 7.3 parameter buffers."""
    config = fused_config(seed=seed, epochs=1)
    param_bytes = init_model(config).buffer.nbytes
    tracemalloc.start()
    try:
        train(config, *fused_splits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.3 * param_bytes


def test_best_epoch_one_is_copied_before_later_steps(fused_splits):
    """A three-epoch run whose epoch 1 scores best returns the parameters a
    one-epoch run of the same seed ends with."""
    vals = []
    three = train(fused_config(seed=2, epochs=3), *fused_splits, val_trace=vals)
    one = train(fused_config(seed=2, epochs=1), *fused_splits)
    assert three.epoch == one.epoch == 1 and len(vals) == 4
    np.testing.assert_array_equal(three.buffer, one.buffer)


def test_stored_metric_reproduced_bit_exactly(splits):
    tr, va, _ = splits
    ckpt = train(small_config(), tr, va)
    assert evaluate(ckpt, va).f1 == ckpt.metric_value


def test_empty_splits_rejected(splits):
    tr, va, _ = splits
    with pytest.raises(DataError, match="non-empty"):
        train(small_config(), [], va)
    with pytest.raises(DataError, match="non-empty"):
        train(small_config(), tr, [])


def test_nan_loss_aborts_with_diagnostic(splits):
    tr, va, _ = splits
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"epoch \d+, batch \d+ .*lr="):
            train(small_config(lr=1e200, epochs=3), tr, va)


def test_batch_gradient_is_mean_of_episode_gradients(splits, monkeypatch):
    tr, va, _ = splits
    episodes = tr[:10]
    assert len(episodes) % harness.GROUP_SIZE != 0  # the last group is smaller
    config = small_config(batch_size=len(episodes), epochs=1)
    stepped = []

    def recording_step(params, state, *args, **kwargs):
        views = buffer_views(state.grad_buffer, [t.shape for t in params.values()])
        stepped.append({name: g.copy() for name, g in zip(params, views)})
        return adam_step(params, state, *args, **kwargs)

    adam_step = harness.adam_step
    monkeypatch.setattr(harness, "adam_step", recording_step)
    losses = []
    train(config, episodes, va, loss_trace=losses)

    normed, stats = normalize(episodes, alpha_hours=config.alpha_hours, n_features=config.n_features)
    params = init_model(config)
    flat = params.flat()
    mean_grads: dict[str, np.ndarray] = {}
    mean_loss = 0.0
    for ep in normed:
        prep = prepare_episode(ep, config, stats)
        with Tape() as tape:
            loss = bce_with_logits(forward(prep, params, config), prep.label)
            tape.backward(loss)
        mean_loss += loss.item() / len(normed)
        for name, t in flat.items():
            g = tape.grad_or_none(t)
            if g is not None:
                mean_grads[name] = mean_grads.get(name, 0.0) + g / len(normed)
    assert len(stepped) == 1 and stepped[0].keys() == mean_grads.keys()
    assert max(np.max(np.abs(stepped[0][k] - mean_grads[k])) for k in mean_grads) <= 1e-12
    assert abs(losses[0] - mean_loss) <= 1e-12


def test_aggressive_clipping_freezes_the_loss(splits):
    tr, va, _ = splits
    # one full batch per epoch: the loss moves only as far as the update allows
    losses_clipped, losses_free = [], []
    train(small_config(batch_size=64, epochs=2, grad_clip=1e-12), tr, va, loss_trace=losses_clipped)
    train(small_config(batch_size=64, epochs=2), tr, va, loss_trace=losses_free)
    assert losses_clipped[0] == losses_free[0]  # loss precedes the first update
    assert abs(losses_clipped[1] - losses_clipped[0]) < 1e-5
    assert abs(losses_free[1] - losses_free[0]) > 1e-3


def test_multilabel_training_path(splits):
    tr, va, te = splits
    two_class = [
        dataclasses.replace(ep, label=np.array([ep.label[0], 1.0 - ep.label[0]]))
        for ep in tr + va + te
    ]
    tr2, va2, te2 = two_class[:60], two_class[60:75], two_class[75:]
    config = small_config(task="multilabel", n_classes=2, epochs=1)
    ckpt = train(config, tr2, va2)
    assert ckpt.metric_name == "macro_f1"
    rep = evaluate(ckpt, te2)
    assert rep.macro_f1 is not None
    assert len(rep.per_class) == 2


def test_train_prepares_the_validation_split_once(splits, monkeypatch):
    tr, va, _ = splits
    val_ids = {ep.episode_id for ep in va}
    calls: list[str] = []
    real = harness.prepare_episode

    def counting(ep, config, stats):
        calls.append(ep.episode_id)
        return real(ep, config, stats)

    monkeypatch.setattr(harness, "prepare_episode", counting)
    val_trace: list[float] = []
    train(small_config(epochs=2), tr, va, val_trace=val_trace)
    assert len(val_trace) == 3  # the initialization and two epochs were all scored
    assert sum(episode_id in val_ids for episode_id in calls) == len(va)
    assert len(calls) == len(tr) + len(va)


# ------------------------------------------------------------------ checkpoints

def test_checkpoint_save_load_round_trip(tmp_path, splits):
    tr, va, te = splits
    ckpt = train(small_config(), tr, va)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)

    arrays, loaded_arrays = checkpoint_arrays(ckpt), checkpoint_arrays(loaded)
    assert set(loaded_arrays) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(loaded_arrays[name], arrays[name])
    assert loaded.config == ckpt.config
    assert loaded.epoch == ckpt.epoch
    assert loaded.metric_name == ckpt.metric_name
    assert loaded.metric_value == ckpt.metric_value
    np.testing.assert_array_equal(loaded.stats.feature_min, ckpt.stats.feature_min)
    np.testing.assert_array_equal(loaded.stats.feature_max, ckpt.stats.feature_max)
    np.testing.assert_array_equal(loaded.stats.global_mean, ckpt.stats.global_mean)
    assert loaded.stats.alpha_hours == ckpt.stats.alpha_hours

    before = evaluate(ckpt, te)
    after = evaluate(loaded, te)
    assert (before.f1, before.aupr, before.auroc) == (after.f1, after.aupr, after.auroc)


def test_build_params_fills_the_checkpoint_without_a_random_init(splits, monkeypatch):
    tr, va, _ = splits
    ckpt = train(small_config(modality="fused", epochs=1), tr, va)

    def no_draws(*args):
        raise AssertionError("build_params drew a random initialization")

    monkeypatch.setattr(model, "_component_rng", no_draws)
    params = ckpt.build_params()
    flat, arrays = params.flat(), checkpoint_arrays(ckpt)
    assert flat.keys() == arrays.keys()
    for name, t in flat.items():
        np.testing.assert_array_equal(t.data, arrays[name])
        assert t.data.base is ckpt.buffer  # a view of the checkpoint's buffer, not a copy
    assert params.buffer is ckpt.buffer
    assert params.ts_interp.bank is params.txt_interp.bank


def checkpoint_of_init(config: RunConfig) -> Checkpoint:
    """A checkpoint holding a copy of ``init_model(config)``'s buffer."""
    params, n = init_model(config), config.n_features
    stats = NormalizationStats(np.zeros(n), np.ones(n), np.full(n, 0.5), config.alpha_hours)
    index = [(name, t.shape) for name, t in params.flat().items()]
    return Checkpoint(params.buffer.copy(), index, config, stats, 0, "f1", 0.0)


@pytest.mark.parametrize(
    "modality, ts_embed, text_irregularity, seed",
    list(itertools.product(("fused", "ts", "txt"), ("utde", "imputation", "mtand"), (True, False), (0, 3))),
)
def test_init_buffer_is_bit_identical_to_concatenated_draws_and_build_params_views_it(
    modality, ts_embed, text_irregularity, seed
):
    config = RunConfig(seed=seed, modality=modality, ts_embed=ts_embed, text_irregularity=text_irregularity)
    ckpt = checkpoint_of_init(config)
    np.testing.assert_array_equal(ckpt.buffer, init_buffer_by_concatenation(config))
    params = ckpt.build_params()
    assert params.buffer is ckpt.buffer
    assert all(np.shares_memory(t.data, ckpt.buffer) for t in params.flat().values())


def test_build_params_allocates_no_parameter_values():
    """At the default config, build_params makes views of the checkpoint's
    buffer: tracemalloc's peak stays within a tenth of it (1.02 buffers when
    it filled a zero skeleton first)."""
    ckpt = checkpoint_of_init(RunConfig(seed=0))
    tracemalloc.start()
    try:
        ckpt.build_params()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.10 * ckpt.buffer.nbytes


def test_train_steps_the_model_buffer_in_place(splits, monkeypatch):
    tr, va, _ = splits
    built, states = [], []

    def recording_init(config):
        built.append(init_model(config))
        return built[-1]

    def recording_step(params, state):
        states.append(state)
        return adam_step(params, state)

    adam_step = harness.adam_step
    monkeypatch.setattr(harness, "init_model", recording_init)
    monkeypatch.setattr(harness, "adam_step", recording_step)
    config = small_config(epochs=2)
    ckpt = train(config, tr, va)
    params = built[0]
    assert states and all(state.param_buffer is params.buffer for state in states)
    assert all(t.data.base is params.buffer for t in params.flat().values())
    assert not np.array_equal(params.buffer, init_model(config).buffer)  # the steps moved it
    # the last epoch scores best here, so the checkpoint takes the buffer uncopied
    assert ckpt.epoch == 2 and ckpt.buffer is params.buffer


def read_checkpoint_file(path) -> tuple[dict, np.ndarray]:
    """The meta line and the parameter buffer of a checkpoint file."""
    meta, _, params = path.read_bytes().partition(b"\n")
    return json.loads(meta), np.frombuffer(params, dtype="<f8")


def write_checkpoint_file(path, meta: dict, values: np.ndarray) -> None:
    """Write ``meta`` (its crc32 set to match) and ``values`` in the checkpoint layout."""
    params = np.asarray(values, dtype="<f8").tobytes()
    path.write_bytes(json.dumps(dict(meta, crc32=zlib.crc32(params))).encode("utf-8") + b"\n" + params)


def test_checkpoint_is_one_parameter_buffer_with_reproducible_bytes(tmp_path, splits):
    tr, va, _ = splits
    ckpt = train(small_config(modality="fused", epochs=1), tr, va)
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(first, ckpt)
    save_checkpoint(second, load_checkpoint(first))
    assert first.read_bytes() == second.read_bytes()
    arrays = checkpoint_arrays(ckpt)
    meta, params = read_checkpoint_file(first)
    assert meta["format_version"] == 4
    assert [name for name, _ in meta["index"]] == list(arrays)
    assert meta["crc32"] == zlib.crc32(params)
    assert params.size == sum(a.size for a in arrays.values())  # exactly 8 bytes a value after line 1
    np.testing.assert_array_equal(params, ckpt.buffer)
    loaded = checkpoint_arrays(load_checkpoint(first))
    assert list(loaded) == list(arrays)
    for name, value in arrays.items():
        assert loaded[name].dtype == np.float64
        np.testing.assert_array_equal(loaded[name], value)


def test_checkpoint_without_format_version_raises_data_error(tmp_path, splits):
    tr, va, _ = splits
    ckpt = train(small_config(epochs=0), tr, va)
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, ckpt)
    meta, params = read_checkpoint_file(path)
    del meta["format_version"], meta["index"]
    write_checkpoint_file(path, meta, params)
    with pytest.raises(DataError, match="format version None"):
        load_checkpoint(path)


def test_version_2_checkpoint_exits_3(tmp_path, splits, capsys):
    from mmists.cli import main

    tr, va, te = splits
    ckpt = train(small_config(epochs=0), tr, va)
    path = tmp_path / "v2.ckpt"
    save_checkpoint(path, ckpt)
    meta, params = read_checkpoint_file(path)
    meta["format_version"] = 2
    del meta["crc32"]
    with open(path, "wb") as f:  # the npz layout of format 2: a JSON meta member and the buffer
        np.savez(f, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), params=params)
    with pytest.raises(DataError, match="unreadable checkpoint .*no JSON meta line"):
        load_checkpoint(path)
    data = tmp_path / "test.jsonl"
    save_episodes(data, te)
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 3
    assert capsys.readouterr().err.startswith("data error: unreadable checkpoint")


def test_version_3_checkpoint_exits_3_naming_both_versions(tmp_path, splits, capsys):
    from mmists.cli import main

    tr, va, te = splits
    path = tmp_path / "v3.ckpt"
    save_checkpoint(path, train(small_config(epochs=0), tr, va))
    meta, params = read_checkpoint_file(path)
    meta["format_version"] = 3  # whose config also held the run's file paths
    meta["config"].update(dict.fromkeys(["train_path", "val_path", "test_path", "stats_path", "checkpoint_path"]))
    write_checkpoint_file(path, meta, params)
    data = tmp_path / "test.jsonl"
    save_episodes(data, te)
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: unreadable checkpoint") and "format version 3, this release reads 4" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data[:-8], "parameter buffer is"),
        (lambda data: data + bytes(8), "parameter buffer is"),
        (lambda data: data[:-100] + bytes([data[-100] ^ 1]) + data[-99:], "crc32"),
    ],
    ids=["short-buffer", "long-buffer", "flipped-byte"],
)
def test_checkpoint_buffer_disagreeing_with_its_meta_raises_data_error(tmp_path, splits, edit, message):
    tr, va, _ = splits
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, train(small_config(epochs=0), tr, va))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(DataError, match=f"unreadable checkpoint .*{message}"):
        load_checkpoint(path)


def _edit_parameters(path, edit) -> None:
    """Rewrite a checkpoint through ``edit(index, values) -> (index, values)``,
    keeping the buffer consistent with the index so the file itself loads."""
    meta, values = read_checkpoint_file(path)
    meta["index"], values = edit(meta["index"], values)
    write_checkpoint_file(path, meta, values)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda index, values: (index + [["ts_head.b_out", [1]]], np.append(values, 0.0)),
         r"lists entry ts_head.b_out \(1,\) where the model has no parameter"),
        (lambda index, values: (index[:-1], values[: -int(np.prod(index[-1][1]))]),
         r"lists no entry where the model has parameter fused_head.b_out \(1,\)"),
        (lambda index, values: (index[1:2] + index[:1] + index[2:], values),
         "lists entry bank.phi .* where the model has parameter bank.omega"),
    ],
    ids=["superset", "subset", "reordered"],
)
def test_checkpoint_index_disagreeing_with_the_model_raises_data_error(tmp_path, splits, edit, message):
    tr, va, te = splits
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, train(small_config(modality="fused", epochs=0), tr, va))
    _edit_parameters(path, edit)
    ckpt = load_checkpoint(path)
    with pytest.raises(DataError, match=message):
        ckpt.build_params()
    with pytest.raises(DataError, match=message):
        evaluate(ckpt, te)


def test_checkpoint_buffer_the_index_does_not_cover_raises_data_error():
    ckpt = checkpoint_of_init(small_config())
    with pytest.raises(DataError, match="checkpoint buffer holds"):
        dataclasses.replace(ckpt, buffer=np.append(ckpt.buffer, 0.0)).build_params()


def all_variants_layout(config: RunConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every variant's parameters in ModelParams field order:
    the index of a checkpoint from when every model built all three variants."""
    flats = [
        model.build_model(dataclasses.replace(config, modality=m, text_irregularity=t), ParamInit(fill=False))
        .flat()
        for m in ("fused", "ts", "txt")
        for t in (True, False)
    ]
    layout: dict[str, tuple[int, ...]] = {}
    for field in dataclasses.fields(model.ModelParams):
        for flat in flats:
            entries = [(name, t.shape) for name, t in flat.items() if name.split(".")[0] == field.name]
            if entries:
                layout.update(entries)
                break
    return list(layout.items())


def test_checkpoint_of_every_variant_raises_data_error_and_exits_3(tmp_path, splits, capsys):
    from mmists.cli import main

    tr, va, te = splits
    config = RunConfig(seed=0, epochs=0)  # the default fused UTDE model
    stats = normalize(tr, alpha_hours=config.alpha_hours, n_features=config.n_features)[1]
    layout = all_variants_layout(config)
    assert sum(int(np.prod(shape)) for _, shape in layout) == 861_764
    ckpt = Checkpoint(
        buffer=np.zeros(861_764), index=layout, config=config, stats=stats,
        epoch=0, metric_name="f1", metric_value=0.0,
    )
    path = tmp_path / "all-variants.ckpt"
    save_checkpoint(path, ckpt)
    message = "checkpoint index lists entry note_proj_w"
    with pytest.raises(DataError, match=message):
        load_checkpoint(path).build_params()
    data = tmp_path / "test.jsonl"
    save_episodes(data, te)
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "contents",
    [b"not a checkpoint", b"{" + b" " * harness._MAX_META_BYTES + b"}\n"],
    ids=["garbage", "meta-line-past-the-cap"],
)
def test_corrupt_checkpoint_raises_data_error(tmp_path, contents):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(contents)
    with pytest.raises(DataError, match="unreadable checkpoint .*no JSON meta line"):
        load_checkpoint(path)


def _rewrite_meta(path, edit) -> None:
    meta, params = read_checkpoint_file(path)
    edit(meta)
    write_checkpoint_file(path, meta, params)


@pytest.mark.parametrize(
    "edit",
    [
        lambda meta: meta["config"].update(unknown_key=1),
        lambda meta: meta.pop("stats"),
        lambda meta: meta["config"].update(lr="fast"),
        lambda meta: meta["index"][0][1].insert(0, -1),
        lambda meta: meta["index"][0][1].insert(0, 10**12),
    ],
    ids=["unknown-config-key", "missing-stats", "bad-config-value", "negative-index-dim", "huge-index-dim"],
)
def test_malformed_checkpoint_meta_raises_data_error(tmp_path, splits, edit):
    tr, va, _ = splits
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, train(small_config(epochs=0), tr, va))
    _rewrite_meta(path, edit)
    with pytest.raises(DataError, match="unreadable checkpoint"):
        load_checkpoint(path)


# ------------------------------------------------------------------ inference

def test_evaluate_rejects_empty_and_mismatched(splits):
    tr, va, _ = splits
    ckpt = train(small_config(epochs=0), tr, va)
    with pytest.raises(DataError, match="empty"):
        evaluate(ckpt, [])
    wrong = [dataclasses.replace(va[0], label=np.array([1.0, 0.0]))]
    with pytest.raises(DataError):
        evaluate(ckpt, wrong)


def test_predict_matches_evaluate_scores(splits):
    tr, va, te = splits
    ckpt = train(small_config(), tr, va)
    rows = predict(ckpt, te)
    assert [episode_id for episode_id, _ in rows] == [ep.episode_id for ep in te]
    scores = np.stack([s for _, s in rows])
    assert scores.shape == (len(te), 1)
    labels = np.stack([ep.label for ep in te])
    rebuilt = evaluate_scores(scores, labels, task="binary")
    direct = evaluate(ckpt, te)
    assert (rebuilt.f1, rebuilt.aupr, rebuilt.auroc) == (direct.f1, direct.aupr, direct.auroc)


def test_zero_logits_predict_half(splits):
    tr, va, te = splits
    config = small_config(epochs=0)
    ckpt = train(config, tr, va)
    # zero the classifier head: logit 0 -> probability exactly 0.5
    arrays = checkpoint_arrays(ckpt)
    for name in ("ts_head.w_hidden", "ts_head.b_hidden", "ts_head.w_out", "ts_head.b_out"):
        arrays[name][...] = 0.0
    for _, scores in predict(ckpt, te):
        assert scores.tolist() == [0.5]


# ------------------------------------------------------------------ aggregation

def test_aggregate_matches_hand_computation():
    reports = [
        EvalReport(f1=0.5, aupr=0.6, auroc=0.7, threshold=0.5, n_examples=10),
        EvalReport(f1=0.7, aupr=0.5, auroc=0.9, threshold=0.5, n_examples=10),
        EvalReport(f1=0.6, aupr=0.7, auroc=0.8, threshold=0.5, n_examples=10),
    ]
    agg = aggregate_reports(reports)
    assert agg["f1"][0] == pytest.approx(0.6)
    assert agg["f1"][1] == pytest.approx(np.std([0.5, 0.7, 0.6]))
    assert agg["auroc"][0] == pytest.approx(0.8)
    assert "macro_f1" not in agg
    with pytest.raises(ValueError):
        aggregate_reports([])


def test_run_seeds_is_deterministic(splits):
    tr, va, te = splits
    config = small_config(epochs=1)
    first = run_seeds(config, [0, 1], tr, va, te)
    second = run_seeds(config, [0, 1], tr, va, te)
    assert [r.auroc for r in first] == [r.auroc for r in second]
    assert len(first) == 2
