"""Concept-attention classifier head.

A fixed set of concept slots binds to input features through competitive
attention (softmax across slots) refined by a GRU, then the input features
read the slots back through cross-attention to produce class logits. The
logits decompose exactly into per-concept relevance times per-concept class
scores, so the attention map is the explanation of the prediction.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

__all__ = [
    "VARIANTS",
    "PATHWAYS",
    "default_iters",
    "HeadConfig",
    "SlotAttentionParams",
    "CrossAttentionParams",
    "PathwayParams",
    "HeadParams",
    "HeadOutput",
    "init_slot_params",
    "init_cross_params",
    "init_head_params",
    "init_slots",
    "slot_attention",
    "gru_update",
    "refine_slots",
    "relevance",
    "decomposed_logits",
    "multi_head_cross_attention",
    "head_forward",
    "class_token",
]

VARIANTS = ("sa", "isa", "boqsa")
PATHWAYS = ("spatial", "global", "dual")


def default_iters(variant: str) -> int:
    """Refinement iterations: 1 for sampled-init slots, 3 for isa/boqsa."""
    return 1 if variant == "sa" else 3


@dataclass(frozen=True)
class HeadConfig:
    """Shapes and behavior switches for one head.

    Every configuration layer-normalizes inputs and slots and projects
    queries, keys and values in both attentions, as slot attention is
    published; there is no switch that skips them.
    """

    concepts: int                  # C
    slot_dim: int                  # d
    input_dim: int                 # D
    n_inputs: int                  # L (rows per spatial sample)
    n_classes: int
    iters: int | None = None       # T; defaults per variant
    variant: str = "sa"
    heads: int = 1
    pathway: str = "spatial"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.pathway not in PATHWAYS:
            raise ConfigError(f"unknown pathway {self.pathway!r}; expected one of {PATHWAYS}")
        if self.iters is None:
            object.__setattr__(self, "iters", default_iters(self.variant))
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        if min(self.concepts, self.slot_dim, self.input_dim, self.n_inputs, self.n_classes) < 1:
            raise ConfigError("all head dimensions must be positive")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.slot_dim % self.heads != 0:
            raise ConfigError(f"slot_dim {self.slot_dim} not divisible by heads {self.heads}")


class _ParamTree:
    """Dataclass of tensors and nested parameter groups.

    named() walks the fields in declaration order, names a nested tensor
    "group.field" (a trailing underscore dropped, so global_ reads as
    global) and skips absent (None) fields. These names key checkpoint
    tensors and optimizer buffers.
    """

    def named(self) -> Iterator[tuple[str, Tensor]]:
        for f in fields(self):
            value = getattr(self, f.name)
            name = f.name.rstrip("_")
            if isinstance(value, Tensor):
                yield name, value
            elif value is not None:
                for sub, t in value.named():
                    yield f"{name}.{sub}", t


@dataclass
class SlotAttentionParams(_ParamTree):
    """Learnable state of the slot-binding stage."""

    wq: Tensor                 # (d, d) slot query projection
    wk: Tensor                 # (D, d) input key projection
    wv: Tensor                 # (D, d) input value projection
    mu: Tensor                 # (1, d) slot init mean
    log_sigma: Tensor          # (1, d) slot init scale, stored as log for positivity
    init_queries: Tensor | None  # (C, d), boqsa only
    wz: Tensor; uz: Tensor; bz: Tensor   # GRU update gate
    wr: Tensor; ur: Tensor; br: Tensor   # GRU reset gate
    wh: Tensor; uh: Tensor; bh: Tensor   # GRU candidate
    ln_input_gain: Tensor      # (1, D)
    ln_input_bias: Tensor      # (1, D)
    ln_slot_gain: Tensor       # (1, d)
    ln_slot_bias: Tensor       # (1, d)
    positions: Tensor          # (C, d) slot positional embeddings

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma.data)


@dataclass
class CrossAttentionParams(_ParamTree):
    """Learnable state of the readback stage."""

    wq: Tensor   # (D, d) input query projection
    wk: Tensor   # (d, d) slot key projection
    wv: Tensor   # (d, d) slot value projection
    out: Tensor  # (d, n_classes) output matrix


@dataclass
class PathwayParams(_ParamTree):
    slot: SlotAttentionParams
    cross: CrossAttentionParams


@dataclass
class HeadParams(_ParamTree):
    """Per-pathway parameter sets; only the configured pathways are present."""

    spatial: PathwayParams | None = None
    global_: PathwayParams | None = None

    def reset_grads(self) -> None:
        for _, t in self.named():
            t.reset_grad()


@dataclass
class HeadOutput:
    """One forward pass: logits plus the attention maps used as explanations."""

    logits: Tensor                    # (..., n_classes)
    attn_spatial: Tensor | None = None  # (..., L, C), head-averaged
    attn_global: Tensor | None = None   # (..., 1, C), head-averaged

    def maps(self) -> list[Tensor]:
        return [a for a in (self.attn_spatial, self.attn_global) if a is not None]


def _param(rng: np.random.Generator, rows: int, cols: int, fan_in: int) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(rows, cols)), requires_grad=True)


def init_slot_params(cfg: HeadConfig, rng: np.random.Generator) -> SlotAttentionParams:
    """Draw one pathway's slot parameters; the slot init scale sigma starts at 1."""
    c, d, dim_in = cfg.concepts, cfg.slot_dim, cfg.input_dim
    init_queries = None
    if cfg.variant == "boqsa":
        init_queries = Tensor(rng.normal(0.0, 1.0, size=(c, d)), requires_grad=True)
    return SlotAttentionParams(
        wq=_param(rng, d, d, d),
        wk=_param(rng, dim_in, d, dim_in),
        wv=_param(rng, dim_in, d, dim_in),
        mu=Tensor(rng.normal(0.0, 1.0, size=(1, d)), requires_grad=True),
        log_sigma=Tensor(np.zeros((1, d)), requires_grad=True),
        init_queries=init_queries,
        wz=_param(rng, d, d, d), uz=_param(rng, d, d, d),
        bz=Tensor(np.zeros((1, d)), requires_grad=True),
        wr=_param(rng, d, d, d), ur=_param(rng, d, d, d),
        br=Tensor(np.zeros((1, d)), requires_grad=True),
        wh=_param(rng, d, d, d), uh=_param(rng, d, d, d),
        bh=Tensor(np.zeros((1, d)), requires_grad=True),
        ln_input_gain=Tensor(np.ones((1, dim_in)), requires_grad=True),
        ln_input_bias=Tensor(np.zeros((1, dim_in)), requires_grad=True),
        ln_slot_gain=Tensor(np.ones((1, d)), requires_grad=True),
        ln_slot_bias=Tensor(np.zeros((1, d)), requires_grad=True),
        positions=Tensor(rng.normal(0.0, 1.0, size=(c, d)), requires_grad=True),
    )


def init_cross_params(cfg: HeadConfig, rng: np.random.Generator) -> CrossAttentionParams:
    d, dim_in = cfg.slot_dim, cfg.input_dim
    return CrossAttentionParams(
        wq=_param(rng, dim_in, d, dim_in),
        wk=_param(rng, d, d, d),
        wv=_param(rng, d, d, d),
        out=_param(rng, d, cfg.n_classes, d),
    )


def init_head_params(cfg: HeadConfig, rng: np.random.Generator) -> HeadParams:
    """Draw all parameters for the configured pathways, spatial first."""
    params = HeadParams()
    if cfg.pathway in ("spatial", "dual"):
        params.spatial = PathwayParams(init_slot_params(cfg, rng), init_cross_params(cfg, rng))
    if cfg.pathway in ("global", "dual"):
        params.global_ = PathwayParams(init_slot_params(cfg, rng), init_cross_params(cfg, rng))
    return params


def init_slots(p: SlotAttentionParams, cfg: HeadConfig, rng: np.random.Generator,
               lead: tuple[int, ...] = (), eps: np.ndarray | None = None) -> Tensor:
    """Initial slots (*lead, C, d): mu + sigma*eps, or the learned queries for
    boqsa repeated over the leading axes (boqsa draws no noise).

    eps, when given, is the (*lead, C, d) standard-normal draw; otherwise it
    is drawn here from rng.
    """
    if cfg.variant == "boqsa":
        if p.init_queries is None:
            raise ConfigError("boqsa variant requires init_queries")
        return ad.expand(p.init_queries, lead)
    if np.any(p.sigma <= 0.0):
        raise ConfigError("slot init scale must be positive")
    if eps is None:
        eps = rng.standard_normal(tuple(lead) + (cfg.concepts, cfg.slot_dim))
    return ad.add(ad.mul(Tensor(eps), ad.exp(p.log_sigma)), p.mu)


def slot_attention(inputs: Tensor, slots: Tensor, p: SlotAttentionParams,
                   cfg: HeadConfig) -> tuple[Tensor, Tensor]:
    """Competitive attention of slots over input features.

    inputs must already be layer-normalized (the caller owns that step);
    slots are the current, already-normalized slot matrix. Scores are
    softmaxed across slots (axis -2) so the slots compete per input column,
    then each slot row is renormalized over inputs to a weighted mean.
    Returns the renormalized attention (..., C, L) and the per-slot readout
    (..., C, d).
    """
    q = ad.matmul(slots, p.wq)
    k = ad.matmul(inputs, p.wk)
    v = ad.matmul(inputs, p.wv)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(cfg.slot_dim))  # (..., C, L)
    attn = ad.row_normalize(ad.softmax_axis(scores, axis=-2))
    return attn, ad.matmul(attn, v)


def gru_update(slots: Tensor, readout: Tensor, p: SlotAttentionParams) -> Tensor:
    """One GRU step per slot row; readout is the input, slots the hidden state."""
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(readout, p.wz), ad.matmul(slots, p.uz)), p.bz))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(readout, p.wr), ad.matmul(slots, p.ur)), p.br))
    cand = ad.tanh(ad.add(ad.add(ad.matmul(readout, p.wh),
                                 ad.matmul(ad.mul(r, slots), p.uh)), p.bh))
    # (1 - z) * slots + z * cand
    return ad.add(slots, ad.mul(z, ad.sub(cand, slots)))


def refine_slots(e_raw: Tensor, p: SlotAttentionParams, cfg: HeadConfig,
                 rng: np.random.Generator, eps: np.ndarray | None = None) -> Tensor:
    """Full slot-binding pass: init, iterate attention+GRU, add slot positions.

    e_raw is (..., L, D); eps is passed on to init_slots. The isa variant
    takes the one-step gradient of implicit slot attention: the slot init
    and the first T-1 iterations run under no_grad, so only the last
    iteration is recorded and mu/log_sigma get no gradient. Forward values
    are identical to sa.
    """
    if e_raw.data.ndim < 2 or e_raw.shape[-1] != cfg.input_dim:
        raise ShapeError(f"expected inputs (*, {cfg.input_dim}), got {e_raw.shape}")
    inputs = ad.layer_norm(e_raw, p.ln_input_gain, p.ln_input_bias)

    def iterate(slots: Tensor) -> Tensor:
        slots = ad.layer_norm(slots, p.ln_slot_gain, p.ln_slot_bias)
        _, readout = slot_attention(inputs, slots, p, cfg)
        return gru_update(slots, readout, p)

    with ad.no_grad() if cfg.variant == "isa" else contextlib.nullcontext():
        slots = init_slots(p, cfg, rng, e_raw.shape[:-2], eps)
        for _ in range(cfg.iters - 1):
            slots = iterate(slots)
    return ad.add(iterate(slots), p.positions)


def relevance(attn: Tensor) -> Tensor:
    """Per-concept relevance: column means of a row-stochastic (L, C) map."""
    return ad.reduce_mean_axis(attn, axis=-2)


def decomposed_logits(slots: Tensor, p: CrossAttentionParams, rel: Tensor,
                      cfg: HeadConfig) -> Tensor:
    """Logits as relevance-weighted per-concept class scores.

    Equals the single-head readback logits up to floating rounding; that identity
    is what makes the relevance scores a faithful explanation. cfg is not
    read; it keeps the signature of the readback it mirrors.
    """
    beta = ad.matmul(ad.matmul(slots, p.wv), p.out)  # (C, n_classes)
    return ad.vecmat(rel, beta)


def multi_head_cross_attention(e_raw: Tensor, slots: Tensor, p: CrossAttentionParams,
                               cfg: HeadConfig) -> tuple[Tensor, Tensor]:
    """Readback with cfg.heads parallel heads over contiguous d/h blocks.

    Inputs (..., L, D) query the refined slots (..., C, d). Each head
    softmaxes across concepts per input row, so every row of its (L, C) map
    sums to 1. All heads run as one stacked (..., h, ...) attention; per-head
    outputs are merged back along features before the output matrix, the
    logits average the per-row class scores over input rows, and the
    exported explanation map is the mean of the per-head maps (heads summed
    in order, then scaled by 1/h). With one head the map is the softmax
    output itself, the tensor that also feeds the readback product.
    """
    h = cfg.heads
    q_full = ad.matmul(e_raw, p.wq)
    k_full = ad.matmul(slots, p.wk)
    v_full = ad.matmul(slots, p.wv)
    q, k, v = (ad.split_heads(t, h) for t in (q_full, k_full, v_full))
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(cfg.slot_dim // h))
    attn = ad.softmax_axis(scores, axis=-1)
    merged = ad.merge_heads(ad.matmul(attn, v), h)
    logits = ad.reduce_mean_axis(ad.matmul(merged, p.out), axis=-2)
    mean_attn = ad.sum_heads(attn, h)
    if h > 1:
        mean_attn = ad.scale(mean_attn, 1.0 / h)
    return mean_attn, logits


def class_token(e_raw: Tensor) -> Tensor:
    """Whole-input embedding for the global pathway: the mean feature row
    (..., 1, D)."""
    return Tensor(e_raw.data.mean(axis=-2, keepdims=True))


def head_forward(e_raw: Tensor, params: HeadParams, cfg: HeadConfig,
                 rng: np.random.Generator) -> HeadOutput:
    """Forward one sample (L, D), or a stack of samples (B, L, D), through the
    configured pathway(s).

    The spatial pathway reads the feature rows, the global pathway the
    single class_token row of them; each refines its own slots and reads
    them back. With pathway="dual" both run, and the logits are the mean
    scale(add(spatial, global), 0.5). A single pathway returns its readback
    logits unchanged. Slot noise (sa/isa) is drawn up front in one call, per
    sample in sample order and spatial before global within a sample: the
    stream of one call per sample and pathway.
    """
    pathways = [(name, p) for name, p in (("spatial", params.spatial), ("global", params.global_))
                if cfg.pathway in (name, "dual")]
    noise = None
    if cfg.variant != "boqsa":
        noise = rng.standard_normal(e_raw.shape[:-2] + (len(pathways), cfg.concepts,
                                                        cfg.slot_dim))
    maps, logits = {}, []
    for k, (name, p) in enumerate(pathways):
        inputs = e_raw if name == "spatial" else class_token(e_raw)
        slots = refine_slots(inputs, p.slot, cfg, rng,
                             None if noise is None else noise[..., k, :, :])
        maps[name], pathway_logits = multi_head_cross_attention(inputs, slots, p.cross, cfg)
        logits.append(pathway_logits)
    joint = logits[0] if len(logits) == 1 else ad.scale(ad.add(*logits), 0.5)
    return HeadOutput(logits=joint, attn_spatial=maps.get("spatial"),
                      attn_global=maps.get("global"))
