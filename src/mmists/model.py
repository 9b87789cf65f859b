"""Model assembly: run configuration, parameter construction, episode
preparation, and the forward passes for fused and single-modality variants.

A model builds only what its variant runs: the time-series stream (conv,
mTAND and gate, as ``ts_embed`` asks) for fused/ts, the text stream (mTAND of
notes or the padded-note projection) for fused/txt, the shared bank when
either runs mTAND, and its modality's backbone and head; other fields are None.

Each component's parameters are initialized from a generator seeded by
(run seed, component id), so components shared between model variants start
bit-identical regardless of which other components a variant instantiates.
Every parameter tensor is a view of one flat buffer, ``ModelParams.buffer``,
in ``flat()`` order; gradients, Adam, snapshots and checkpoints use it whole.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, Episode, NormalizationStats, embed_notes, group_by_feature, note_matrix, truncate_notes
from .fusion import (
    ClassifierParams,
    FusionLayerParams,
    LayerNormParams,
    SingleLayerParams,
    classify,
    classify_single,
    fusion_stack,
    init_classifier,
    init_fusion_layer,
    init_layer_norm,
    init_single_layer,
    single_stack,
)
from .gating import GATE_LEVELS, GateParams, compute_gate, init_gate_params, utde_embed
from .imputation import ReferenceGrid, bin_series, conv_embed, impute
from .mtand import (
    MtandParams,
    PaddedSeries,
    Time2VecBank,
    init_mtand_params,
    init_time2vec_bank,
    mtand_ts,
    mtand_txt,
    pad_series,
)
from .tensor import ParamInit, Tensor, concat, layer_norm, linear, reshape

__all__ = [
    "ConfigError",
    "RunConfig",
    "ModelParams",
    "PreparedEpisode",
    "EpisodeBatch",
    "init_model",
    "build_model",
    "prepare_episode",
    "collate",
    "forward",
    "forward_fused",
    "single_modality_forward",
    "ts_embedding",
    "TS_EMBEDS",
    "MODALITIES",
]


class ConfigError(ValueError):
    """Invalid run configuration."""


TS_EMBEDS = ("utde", "imputation", "mtand")
MODALITIES = ("fused", "ts", "txt")
TASKS = ("binary", "multilabel")


@dataclass
class RunConfig:
    """The model and its training (architecture, optimization); no file paths,
    so a checkpoint's meta does not depend on where a run's files live."""

    seed: int = 0
    task: str = "binary"
    n_classes: int = 1
    modality: str = "fused"  # fused | ts | txt
    ts_embed: str = "utde"  # utde | imputation | mtand
    gate_level: str = "patient"
    text_irregularity: bool = True  # False: pad raw projected notes instead of interpolating
    alpha: int = 24  # reference grid points
    n_features: int = 4
    text_dim: int = 16
    d_hidden: int = 64
    d_timeembed: int = 64
    time_heads: int = 8
    fusion_layers: int = 3
    heads: int = 4
    conv_kernel: int = 1
    note_budget: int = 5
    text_encoder_seed: int = 0
    alpha_hours: float = 24.0
    batch_size: int = 32
    lr: float = 4e-4
    epochs: int | None = None  # None resolves to 20 for ts-only runs, 6 otherwise
    grad_clip: float | None = None
    pos_weight: float = 1.0

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return 20 if self.modality == "ts" else 6

    def validate(self) -> "RunConfig":
        c = self
        positive = {
            "n_classes": c.n_classes,
            "alpha": c.alpha,
            "n_features": c.n_features,
            "text_dim": c.text_dim,
            "d_hidden": c.d_hidden,
            "d_timeembed": c.d_timeembed,
            "time_heads": c.time_heads,
            "fusion_layers": c.fusion_layers,
            "heads": c.heads,
            "conv_kernel": c.conv_kernel,
            "note_budget": c.note_budget,
            "batch_size": c.batch_size,
        }
        for name, value in positive.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if c.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {c.seed}")
        if c.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {c.task!r}")
        if c.task == "binary" and c.n_classes != 1:
            raise ConfigError("binary task requires n_classes = 1")
        if c.task == "multilabel" and c.n_classes < 2:
            raise ConfigError("multilabel task requires n_classes >= 2")
        if c.modality not in MODALITIES:
            raise ConfigError(f"modality must be one of {MODALITIES}, got {c.modality!r}")
        if c.ts_embed not in TS_EMBEDS:
            raise ConfigError(f"ts_embed must be one of {TS_EMBEDS}, got {c.ts_embed!r}")
        if c.gate_level not in GATE_LEVELS:
            raise ConfigError(f"gate_level must be one of {GATE_LEVELS}, got {c.gate_level!r}")
        if c.d_hidden % c.heads != 0:
            raise ConfigError(f"heads ({c.heads}) must divide d_hidden ({c.d_hidden})")
        if c.d_timeembed < 2:
            raise ConfigError("d_timeembed needs a linear dim plus at least one periodic dim")
        finite = {"lr": c.lr, "alpha_hours": c.alpha_hours, "pos_weight": c.pos_weight}
        if c.grad_clip is not None:
            finite["grad_clip"] = c.grad_clip
        for name, value in finite.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if c.lr <= 0:
            raise ConfigError(f"lr must be positive, got {c.lr}")
        if c.epochs is not None and c.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {c.epochs}")
        if c.alpha_hours <= 0:
            raise ConfigError(f"alpha_hours must be positive, got {c.alpha_hours}")
        if not c.text_irregularity and c.note_budget > c.alpha:
            raise ConfigError("padded-note mode needs note_budget <= alpha")
        if c.pos_weight <= 0:
            raise ConfigError(f"pos_weight must be positive, got {c.pos_weight}")
        if c.grad_clip is not None and c.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be positive, got {c.grad_clip}")
        return c


@dataclass
class ModelParams:
    """The parameters of one model variant; components it does not run are None."""

    bank: Time2VecBank | None = None  # shared time-embedding bank (listed first so it owns its flat names)
    conv_kernel: Tensor | None = None
    conv_bias: Tensor | None = None
    ts_interp: MtandParams | None = None
    txt_interp: MtandParams | None = None
    gate: GateParams | None = None
    note_proj_w: Tensor | None = None
    note_proj_b: Tensor | None = None
    fusion_layers: list[FusionLayerParams] | None = None
    fused_ln_ts: LayerNormParams | None = None
    fused_ln_txt: LayerNormParams | None = None
    fused_head: ClassifierParams | None = None
    ts_stack: list[SingleLayerParams] | None = None
    ts_ln: LayerNormParams | None = None
    ts_head: ClassifierParams | None = None
    txt_stack: list[SingleLayerParams] | None = None
    txt_ln: LayerNormParams | None = None
    txt_head: ClassifierParams | None = None
    buffer: np.ndarray | None = None  # every value above, flat, in flat() order

    def flat(self) -> dict[str, Tensor]:
        """Stable name -> Tensor map of the built tensors; shared tensors
        appear once, under their first name."""
        out: dict[str, Tensor] = {}
        seen: set[int] = set()
        for name, t in _walk(self, ""):
            if id(t) not in seen:
                seen.add(id(t))
                out[name] = t
        return out


def _walk(obj, prefix: str):
    """(name, Tensor) of every tensor under ``obj``, depth first in field order.
    A module function because a closure that calls itself is a reference
    cycle: it would keep flat()'s map, and with it the parameter buffer, alive
    until the cyclic collector runs."""
    if isinstance(obj, Tensor):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, (Tensor, list)) or dataclasses.is_dataclass(value):
                yield from _walk(value, f"{prefix}.{f.name}" if prefix else f.name)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _walk(item, f"{prefix}.{i}")


_COMPONENT_IDS = {
    "bank": 1,
    "conv": 2,
    "ts_interp": 3,
    "txt_interp": 4,
    "gate": 5,
    "note_proj": 6,
    "fusion": 7,
    "fused_head": 8,
    "ts_stack": 9,
    "ts_head": 10,
    "txt_stack": 11,
    "txt_head": 12,
}


def _component_rng(seed: int, component: str) -> np.random.Generator:
    return np.random.default_rng([seed, _COMPONENT_IDS[component]])


def init_model(config: RunConfig) -> ModelParams:
    """The config's model, drawn into a buffer sized by a shapes-only build."""
    layout = ParamInit(fill=False)
    build_model(config.validate(), layout)
    return build_model(config, ParamInit(np.empty(layout.size)))


def build_model(c: RunConfig, init: ParamInit) -> ModelParams:
    """The config's parameters, made by ``init`` in flat() order; when it
    fills, each component draws from its own seeded generator."""

    def drawing(component: str) -> ParamInit:
        if init.fill:
            init.rng = _component_rng(c.seed, component)
        return init

    ts_stream = c.modality in ("fused", "ts")
    txt_stream = c.modality in ("fused", "txt")
    ts_mtand = ts_stream and c.ts_embed != "imputation"
    txt_mtand = txt_stream and c.text_irregularity
    p = ModelParams(buffer=init.buffer)
    if ts_mtand or txt_mtand:
        p.bank = init_time2vec_bank(drawing("bank"), c.time_heads, c.d_timeembed)
    if ts_stream and c.ts_embed != "mtand":
        shape, scale = (c.conv_kernel, c.n_features, c.d_hidden), (c.conv_kernel * c.n_features) ** -0.5
        p.conv_kernel = drawing("conv").normal(scale, shape)
        p.conv_bias = init.full(0.0, (c.d_hidden,))
    if ts_mtand:
        p.ts_interp = init_mtand_params(drawing("ts_interp"), p.bank, c.n_features, c.d_hidden)
    if txt_mtand:
        p.txt_interp = init_mtand_params(drawing("txt_interp"), p.bank, c.text_dim, c.d_hidden)
    if ts_stream and c.ts_embed == "utde":
        p.gate = init_gate_params(drawing("gate"), c.gate_level, c.d_hidden)
    if txt_stream and not c.text_irregularity:
        p.note_proj_w = drawing("note_proj").normal(c.text_dim**-0.5, (c.text_dim, c.d_hidden))
        p.note_proj_b = init.full(0.0, (c.d_hidden,))
    if c.modality == "fused":
        fusion = drawing("fusion")
        p.fusion_layers = [init_fusion_layer(fusion, c.d_hidden) for _ in range(c.fusion_layers)]
        p.fused_ln_ts = init_layer_norm(init, c.d_hidden)
        p.fused_ln_txt = init_layer_norm(init, c.d_hidden)
        p.fused_head = init_classifier(drawing("fused_head"), 2 * c.d_hidden, c.d_hidden, c.n_classes)
    else:  # ts_stack, ts_ln, ts_head or their txt counterparts
        m, stack = c.modality, drawing(f"{c.modality}_stack")
        setattr(p, f"{m}_stack", [init_single_layer(stack, c.d_hidden) for _ in range(c.fusion_layers)])
        setattr(p, f"{m}_ln", init_layer_norm(init, c.d_hidden))
        setattr(p, f"{m}_head", init_classifier(drawing(f"{m}_head"), c.d_hidden, c.d_hidden, c.n_classes))
    return p


@dataclass
class PreparedEpisode:
    """Everything a forward pass reads, precomputed from a normalized episode."""

    episode_id: str
    label: np.ndarray  # float [n_classes]
    feature_series: list[tuple[np.ndarray, np.ndarray]]
    imputed: np.ndarray  # [alpha x d_m]
    note_times: np.ndarray  # [l]
    note_embs: np.ndarray  # [l x d_t]


def prepare_episode(ep: Episode, config: RunConfig, stats: NormalizationStats) -> PreparedEpisode:
    """Truncate/encode notes and precompute the model-facing arrays.

    The episode must already be normalized (times and values in [0,1]).
    """
    if ep.label.shape[0] != config.n_classes:
        raise DataError(
            f"episode {ep.episode_id}: label length {ep.label.shape[0]} != {config.n_classes}"
        )
    ep = truncate_notes(ep, config.note_budget)
    ep = embed_notes(ep, config.text_dim, seed=config.text_encoder_seed)
    note_times, note_embs = note_matrix(ep)
    if note_embs.shape[1] != config.text_dim:
        raise DataError(
            f"episode {ep.episode_id}: note embedding width {note_embs.shape[1]} != {config.text_dim}"
        )
    grid = ReferenceGrid(config.alpha)
    series = group_by_feature(ep, config.n_features)
    imputed = impute(bin_series(series, grid, ep.episode_id), stats).data
    return PreparedEpisode(
        episode_id=ep.episode_id,
        label=ep.label.astype(np.float64),
        feature_series=series,
        imputed=imputed,
        note_times=note_times,
        note_embs=note_embs,
    )


@dataclass
class EpisodeBatch:
    """A group of G prepared episodes stacked into padded arrays; masks mark real entries."""

    labels: np.ndarray  # float [G x n_classes]
    imputed: np.ndarray  # [G x alpha x d_m]
    series: PaddedSeries  # [G x d_m x L], L = longest feature series in the group
    note_times: np.ndarray  # [G x N], N = most notes in the group
    note_embs: np.ndarray  # [G x N x d_t]
    note_mask: np.ndarray  # bool [G x N]


def collate(preps: list[PreparedEpisode]) -> EpisodeBatch:
    """Stack prepared episodes into one padded group for a batched forward pass."""
    if not preps:
        raise ValueError("collate needs at least one episode")
    counts = np.array([p.note_times.shape[0] for p in preps])
    n = int(counts.max())
    note_times = np.zeros((len(preps), n))
    note_embs = np.zeros((len(preps), n, preps[0].note_embs.shape[1]))
    for b, p in enumerate(preps):
        note_times[b, : counts[b]] = p.note_times
        note_embs[b, : counts[b]] = p.note_embs
    return EpisodeBatch(
        labels=np.stack([p.label for p in preps]),
        imputed=np.stack([p.imputed for p in preps]),
        series=pad_series([p.feature_series for p in preps]),
        note_times=note_times,
        note_embs=note_embs,
        note_mask=np.arange(n) < counts[:, None],
    )


def ts_embedding(
    batch: EpisodeBatch,
    params: ModelParams,
    config: RunConfig,
    gate_override: float | None = None,
) -> Tensor:
    """The time-series stream [G x alpha x d_h]: imputation-only,
    interpolation-only, or gated blend."""
    grid = ReferenceGrid(config.alpha)
    if config.ts_embed == "imputation":
        return conv_embed(Tensor(batch.imputed), params.conv_kernel, params.conv_bias)
    if config.ts_embed == "mtand":
        return mtand_ts(batch.series, grid, params.ts_interp)
    e_imp = conv_embed(Tensor(batch.imputed), params.conv_kernel, params.conv_bias)
    e_attn = mtand_ts(batch.series, grid, params.ts_interp)
    if gate_override is None:
        g = compute_gate(e_imp, e_attn, params.gate)
    else:
        g = Tensor(np.full((1, 1), float(gate_override)))
    return utde_embed(e_imp, e_attn, g)


def _txt_stream(
    batch: EpisodeBatch, params: ModelParams, config: RunConfig
) -> tuple[Tensor, np.ndarray | None, int | np.ndarray]:
    """Text stream [G x alpha x d_h] plus its key mask and each episode's row
    holding the last real note state."""
    grid = ReferenceGrid(config.alpha)
    if config.text_irregularity:
        z = mtand_txt(batch.note_times, batch.note_embs, grid, params.txt_interp, batch.note_mask)
        return z, None, config.alpha - 1
    g, n = batch.note_mask.shape
    if n > config.alpha:
        raise DataError(f"{n} notes exceed the {config.alpha}-row grid in padded-note mode")
    proj = linear(batch.note_embs, params.note_proj_w, params.note_proj_b)
    if n < config.alpha:
        proj = concat([proj, Tensor(np.zeros((g, config.alpha - n, config.d_hidden)))], axis=1)
    counts = batch.note_mask.sum(axis=1)
    return proj, np.arange(config.alpha) < counts[:, None], counts - 1


def forward_fused(batch: EpisodeBatch, params: ModelParams, config: RunConfig) -> Tensor:
    """Logits [G x n_classes]; when both streams run mTAND, each embeds the grid
    in its own kernel node, and the tape adds their shared-bank gradients."""
    z_ts = ts_embedding(batch, params, config)
    z_txt, txt_mask, txt_row = _txt_stream(batch, params, config)
    z_ts, z_txt = fusion_stack(
        z_ts, z_txt, params.fusion_layers, config.heads,
        txt_key_mask=txt_mask, ts_row=config.alpha - 1, txt_row=txt_row,
    )  # [G x 1 x d_h] each: only the rows the head reads
    z_ts = layer_norm(z_ts, params.fused_ln_ts.gain, params.fused_ln_ts.bias)
    z_txt = layer_norm(z_txt, params.fused_ln_txt.gain, params.fused_ln_txt.bias)
    return classify(z_ts, z_txt, params.fused_head)


def single_modality_forward(batch: EpisodeBatch, params: ModelParams, config: RunConfig) -> Tensor:
    """Self-attention-only backbone on config.modality's stream, classifier on its last state."""
    if config.modality == "ts":
        z = ts_embedding(batch, params, config)
        h = single_stack(z, params.ts_stack, config.heads, row=config.alpha - 1)
        h = layer_norm(h, params.ts_ln.gain, params.ts_ln.bias)
        return classify_single(h, params.ts_head)
    if config.modality == "txt":
        z, mask, row = _txt_stream(batch, params, config)
        h = single_stack(z, params.txt_stack, config.heads, key_mask=mask, row=row)
        h = layer_norm(h, params.txt_ln.gain, params.txt_ln.bias)
        return classify_single(h, params.txt_head)
    raise ConfigError(f"single-modality forward needs modality 'ts' or 'txt', got {config.modality!r}")


def forward(prep: PreparedEpisode | EpisodeBatch, params: ModelParams, config: RunConfig) -> Tensor:
    """Dispatch on config.modality; logits [G x n_classes] for a group,
    [n_classes] for one PreparedEpisode (run as a group of one)."""
    if isinstance(prep, PreparedEpisode):
        out = forward(collate([prep]), params, config)
        return reshape(out, out.shape[1:])
    if config.modality == "fused":
        return forward_fused(prep, params, config)
    return single_modality_forward(prep, params, config)
