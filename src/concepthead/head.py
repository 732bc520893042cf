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
from typing import Callable, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _swap_last
from .errors import ConfigError, NumericError, ShapeError

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
    "slot_step",
    "refine_slots",
    "relevance",
    "decomposed_logits",
    "multi_head_cross_attention",
    "head_forward",
    "explanation_map",
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
    tensors and optimizer buffers. A layout tree (init_head_params with rng
    None) holds each tensor's shape instead, and fill() puts tensors in.
    """

    def _leaves(self, prefix: str = "") -> Iterator[tuple[str, _ParamTree, str]]:
        """(name, group, field) of each present tensor field, in named() order."""
        for f in fields(self):
            value = getattr(self, f.name)
            name = prefix + f.name.rstrip("_")
            if isinstance(value, _ParamTree):
                yield from value._leaves(name + ".")
            elif value is not None:
                yield name, self, f.name

    def named(self) -> Iterator[tuple[str, Tensor]]:
        return ((name, getattr(group, f)) for name, group, f in self._leaves())

    def fill(self, make: Callable[[str], Tensor]) -> None:
        """Set each present tensor field to make(its name)."""
        for name, group, f in self._leaves():
            setattr(group, f, make(name))


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


def _tensor(rng: np.random.Generator | None, rows: int, cols: int, std: float = 1.0,
            fill: float | None = None) -> Tensor | tuple[int, int]:
    """A (rows, cols) parameter of `fill`s, or drawn from N(0, std^2) when
    fill is None; its shape (rows, cols) alone when rng is None."""
    if rng is None:
        return (rows, cols)
    data = rng.normal(0.0, std, size=(rows, cols)) if fill is None else np.full((rows, cols), fill)
    return Tensor(data, requires_grad=True)


def _weight(rng: np.random.Generator | None, rows: int, cols: int
            ) -> Tensor | tuple[int, int]:
    """A (rows, cols) weight drawn from N(0, 1/rows): rows is its fan-in."""
    return _tensor(rng, rows, cols, 1.0 / np.sqrt(rows))


def init_slot_params(cfg: HeadConfig, rng: np.random.Generator | None) -> SlotAttentionParams:
    """Draw one pathway's slot parameters; the slot init scale sigma starts at
    1. With rng None nothing is drawn or made: each field is its shape."""
    c, d, dim_in = cfg.concepts, cfg.slot_dim, cfg.input_dim
    init_queries = None
    if cfg.variant == "boqsa":
        init_queries = _tensor(rng, c, d)
    return SlotAttentionParams(
        wq=_weight(rng, d, d), wk=_weight(rng, dim_in, d), wv=_weight(rng, dim_in, d),
        mu=_tensor(rng, 1, d), log_sigma=_tensor(rng, 1, d, fill=0.0),
        init_queries=init_queries,
        wz=_weight(rng, d, d), uz=_weight(rng, d, d), bz=_tensor(rng, 1, d, fill=0.0),
        wr=_weight(rng, d, d), ur=_weight(rng, d, d), br=_tensor(rng, 1, d, fill=0.0),
        wh=_weight(rng, d, d), uh=_weight(rng, d, d), bh=_tensor(rng, 1, d, fill=0.0),
        ln_input_gain=_tensor(rng, 1, dim_in, fill=1.0),
        ln_input_bias=_tensor(rng, 1, dim_in, fill=0.0),
        ln_slot_gain=_tensor(rng, 1, d, fill=1.0), ln_slot_bias=_tensor(rng, 1, d, fill=0.0),
        positions=_tensor(rng, c, d),
    )


def init_cross_params(cfg: HeadConfig, rng: np.random.Generator | None
                      ) -> CrossAttentionParams:
    d, dim_in = cfg.slot_dim, cfg.input_dim
    return CrossAttentionParams(wq=_weight(rng, dim_in, d), wk=_weight(rng, d, d),
                                wv=_weight(rng, d, d), out=_weight(rng, d, cfg.n_classes))


def init_head_params(cfg: HeadConfig, rng: np.random.Generator | None) -> HeadParams:
    """Draw all parameters for the configured pathways, spatial first. With
    rng None nothing is drawn or made: the layout tree, each tensor's place
    holding its (rows, cols) shape, that a checkpoint's tensors are checked
    against and then fill."""
    params = HeadParams()
    if cfg.pathway in ("spatial", "dual"):
        params.spatial = PathwayParams(init_slot_params(cfg, rng), init_cross_params(cfg, rng))
    if cfg.pathway in ("global", "dual"):
        params.global_ = PathwayParams(init_slot_params(cfg, rng), init_cross_params(cfg, rng))
    return params


def init_slots(p: SlotAttentionParams, cfg: HeadConfig, rng: np.random.Generator,
               lead: tuple[int, ...] = (), eps: np.ndarray | None = None) -> Tensor:
    """Initial slots (*lead, C, d): mu + sigma*eps, or for boqsa, which draws
    no noise, zeros + the learned queries. Either way a per-sample constant
    meets the shared parameters, so the slots carry the sample axis.

    eps, when given, is the (*lead, C, d) standard-normal draw; otherwise it
    is drawn here from rng.
    """
    if cfg.variant == "boqsa":
        if p.init_queries is None:
            raise ConfigError("boqsa variant requires init_queries")
        return ad.add(Tensor(np.zeros(tuple(lead) + p.init_queries.shape)), p.init_queries)
    if np.any(p.sigma <= 0.0):
        raise ConfigError("slot init scale must be positive")
    if eps is None:
        eps = rng.standard_normal(tuple(lead) + (cfg.concepts, cfg.slot_dim))
    return ad.add(ad.mul(Tensor(eps), ad.exp(p.log_sigma)), p.mu)


# the layer-normed inputs' keys, transposed (..., d, L), and values (..., L, d)
_KeysValues = tuple[np.ndarray, np.ndarray]


def _unchecked(data: np.ndarray, op: str) -> np.ndarray:
    return data


def slot_step(slots: Tensor, inputs: Tensor, p: SlotAttentionParams, cfg: HeadConfig,
              kv: _KeysValues | None) -> tuple[Tensor, np.ndarray, _KeysValues]:
    """One refinement iteration, recorded as one op: layer-norm the slots,
    bind them to the inputs by competitive attention and update each slot
    row by one GRU step.

    inputs are the layer-normed inputs (..., L, D). kv is None on the first
    step of a refine_slots call, which makes the inputs' keys, transposed
    (..., d, L), and values (..., L, d); every later step of that call takes
    the (keys_t, values) pair an earlier one returned and makes neither.
    Scores are softmaxed across slots (axis -2), so the slots compete for
    each input, then each slot row is renormalized over the inputs: the
    binder map. Its readout, a weighted mean of the input values, is the
    GRU's input and the normed slots its hidden state. Returns the new slots
    (..., C, d), the binder map (..., C, L) and the (keys_t, values) pair.

    It computes what the chain of autodiff ops it replaces computed
    (layer_norm; matmul, transpose, scale, softmax_axis, a row
    normalization, matmul; the GRU's matmul, add, sigmoid, mul, tanh, sub),
    in that order and bit for bit, and a non-finite value raises the
    NumericError of the first op of that chain that made one. The VJP replays
    that chain's backward walk and gives the same gradients, bit for bit. It
    keeps the normed rows and their 1/std, q, the softmax and its row sums,
    the readout, z, r and the candidate, and recomputes the elementwise rest
    (the normed slots, r * s, cand - s and the binder map). `inputs` is a
    parent twice, for its keys and then its values, as the chain read it.
    The step computes the same way with or without a record; under no_grad
    no node keeps the VJP, so what it would read is freed on return.

    Finite checks: the step first runs with floating-point warnings off and
    checks four values only, the points where a non-finite value could
    vanish before it reaches the output. From finite slots and parameters,
    +, -, *, / and matmul never turn a NaN finite; ±inf vanishes only in the
    softmax's exp, a gate's sigmoid and the candidate's tanh, and the
    row normalization's division by an infinite sum leaves a NaN in that
    row. So it checks the scaled scores, the z and r gate pre-activations
    and the candidate pre-activation. Once they pass, the output is finite
    and is recorded unchecked. When one of them is not finite, the step
    runs again from the same kv under the caller's floating-point settings
    with every check the chain made, those of the keys and values when kv
    is None, and raises the chain's error.
    """
    if slots.data.ndim < 2 or slots.shape[-2:] != (cfg.concepts, cfg.slot_dim):
        raise ShapeError(f"expected slots (*, {cfg.concepts}, {cfg.slot_dim}), "
                         f"got {slots.shape}")
    try:
        with np.errstate(all="ignore"):
            return _slot_step(slots, inputs, p, cfg, kv, _unchecked)
    except NumericError:
        return _slot_step(slots, inputs, p, cfg, kv, ad.checked)


def _slot_step(slots: Tensor, inputs: Tensor, p: SlotAttentionParams, cfg: HeadConfig,
               kv: _KeysValues | None, check) -> tuple[Tensor, np.ndarray, _KeysValues]:
    """slot_step's body: check(value, op) runs at each point of the chain
    that slot_step does not always check (see its docstring)."""
    screen, swap = ad.checked, _swap_last
    d = cfg.slot_dim
    scale = 1.0 / np.sqrt(d)
    xhat, inv_std = ad.normalize_rows(slots.data)
    g_row = p.ln_slot_gain.data.reshape(1, d)
    b_row = p.ln_slot_bias.data.reshape(1, d)
    s = check(xhat * g_row + b_row, "layer_norm")
    wq, wz, uz, wr, ur, wh, uh = (t.data for t in (p.wq, p.wz, p.uz, p.wr, p.ur, p.wh, p.uh))
    q = check(s @ wq, "matmul")
    x, wk, wv = inputs.data, p.wk.data, p.wv.data
    if kv is None:
        k, values = check(x @ wk, "matmul"), check(x @ wv, "matmul")
        kv = check(np.ascontiguousarray(swap(k)), "transpose"), values
        del k
    keys_t, values = kv
    # softmax across slots, then each row over the inputs
    a = check(q @ keys_t, "matmul")
    a *= scale
    screen(a, "scale")  # the softmax's exp turns a -inf score into 0
    a -= a.max(axis=-2, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-2, keepdims=True)
    check(a, "softmax_axis")
    sums = a.sum(axis=-1, keepdims=True)
    attn = check(a / sums, "row_normalize")
    readout = check(attn @ values, "matmul")

    def gate(w, u, bias):
        out = check(readout @ w, "matmul")
        out += check(s @ u, "matmul")
        check(out, "add")
        out += bias.data
        screen(out, "add")  # the sigmoid turns ±inf into 0 or 1
        np.negative(out, out=out)
        with np.errstate(over="ignore"):  # exp(-x) -> inf is a correct 0.0 output
            np.exp(out, out=out)
        out += 1.0
        return check(np.divide(1.0, out, out=out), "sigmoid")

    z = gate(wz, uz, p.bz)
    r = gate(wr, ur, p.br)
    cand = check(readout @ wh, "matmul")
    cand += check(check(r * s, "mul") @ uh, "matmul")
    check(cand, "add")
    cand += p.bh.data
    screen(cand, "add")  # the tanh turns ±inf into ±1
    check(np.tanh(cand, out=cand), "tanh")
    new = check(cand - s, "sub")
    new *= z
    check(new, "mul")
    new += s

    # the contributions come out in this order, each computed when the walk
    # asks for it, so that each leaf's can be added into its .grad before the
    # next is made; `inputs` gets its keys' delta before its values'
    parents = (slots, p.ln_slot_gain, p.ln_slot_bias, p.wq, inputs, p.wk, inputs, p.wv,
               p.uz, p.ur, p.uh, p.wz, p.bz, p.wr, p.br, p.wh, p.bh)
    (need_slots, need_gain, need_bias, need_wq, need_x, need_wk, _, need_wv, need_uz,
     need_ur, need_uh, need_wz, need_bz, need_wr, need_br, need_wh,
     need_bh) = (t.requires_grad for t in parents)

    def vjp(g):
        # out = s + z * (cand - s); its delta g is the first of s's six
        s = xhat * g_row + b_row
        g_z = cand - s
        np.multiply(g, g_z, out=g_z)
        g_z *= z
        g_z *= 1.0 - z  # through the sigmoid
        g_d = g * z
        g_h = cand * cand
        np.subtract(1.0, g_h, out=g_h)
        g_h *= g_d  # through the tanh
        np.negative(g_d, out=g_d)  # the sub's delta to s
        # cand = tanh(readout @ wh + (r * s) @ uh + bh)
        g_rs = g_h @ swap(uh)
        g_r = g_rs * s
        g_rs *= r  # r * s's delta to s
        g_r *= r
        g_r *= 1.0 - r  # through the sigmoid
        # the readout's deltas add as the walk reached them: wz, wh, wr
        g_readout = g_z @ swap(wz)
        g_readout += g_h @ swap(wh)
        g_readout += g_r @ swap(wr)
        attn = a / sums
        g_attn = g_readout @ swap(values)
        g_v = swap(attn) @ g_readout
        del g_readout
        g_attn -= (g_attn * attn).sum(axis=-1, keepdims=True)
        del attn
        g_attn /= sums  # through the row normalization
        g_attn -= (g_attn * a).sum(axis=-2, keepdims=True)
        g_scores = np.multiply(a, g_attn, out=g_attn)  # through the softmax
        g_scores *= scale
        g_q = g_scores @ swap(keys_t)
        g_k = np.ascontiguousarray(swap(swap(q) @ g_scores))
        del g_scores
        # the six deltas to s in walk order: add, s @ uz, sub, r * s, s @ wq, s @ ur
        g_s = g + g_z @ swap(uz)
        g_s += g_d
        del g_d
        g_s += g_rs
        del g_rs
        g_s += g_q @ swap(wq)
        g_s += g_r @ swap(ur)
        yield ad.layer_norm_dx(g_s * g_row, xhat, inv_std) if need_slots else None
        yield g_s * xhat if need_gain else None
        yield g_s if need_bias else None
        del g_s
        yield swap(s) @ g_q if need_wq else None
        del g_q
        yield g_k @ swap(wk) if need_x else None
        yield swap(x) @ g_k if need_wk else None
        del g_k
        yield g_v @ swap(wv) if need_x else None
        yield swap(x) @ g_v if need_wv else None
        del g_v
        yield swap(s) @ g_z if need_uz else None
        yield swap(s) @ g_r if need_ur else None
        yield swap(r * s) @ g_h if need_uh else None
        del s
        yield swap(readout) @ g_z if need_wz else None
        yield g_z if need_bz else None
        del g_z
        yield swap(readout) @ g_r if need_wr else None
        yield g_r if need_br else None
        del g_r
        yield swap(readout) @ g_h if need_wh else None
        yield g_h if need_bh else None

    # finite: s is (or the scores' screen fails), |cand| <= 1 and z is in [0, 1]
    return ad.record(new, parents, vjp, "add", finite=True), attn, kv


def refine_slots(e_raw: Tensor, p: SlotAttentionParams, cfg: HeadConfig,
                 rng: np.random.Generator, eps: np.ndarray | None = None) -> Tensor:
    """Full slot-binding pass: init, cfg.iters slot_steps, add slot positions.

    e_raw is (..., L, D); eps is passed on to init_slots. The inputs are
    layer-normed once, and their keys and values are computed once, by the
    first step, which returns them; each later step takes them from the step
    before. Each step is one recorded op (see slot_step). The isa variant
    takes the one-step gradient of implicit slot attention: the slot init
    and the first T-1 steps run under no_grad, so only the last step is
    recorded and mu/log_sigma get no gradient. Forward values are identical
    to sa.
    """
    if e_raw.data.ndim < 2 or e_raw.shape[-1] != cfg.input_dim:
        raise ShapeError(f"expected inputs (*, {cfg.input_dim}), got {e_raw.shape}")
    inputs = ad.layer_norm(e_raw, p.ln_input_gain, p.ln_input_bias)
    kv = None
    with ad.no_grad() if cfg.variant == "isa" else contextlib.nullcontext():
        slots = init_slots(p, cfg, rng, e_raw.shape[:-2], eps)
        for _ in range(cfg.iters - 1):
            slots, _, kv = slot_step(slots, inputs, p, cfg, kv)
    slots, _, _ = slot_step(slots, inputs, p, cfg, kv)
    return ad.add(slots, p.positions)


def relevance(attn: Tensor) -> Tensor:
    """Per-concept relevance: column means of a row-stochastic (L, C) map."""
    return ad.reduce_mean_axis(attn, axis=-2)


def decomposed_logits(slots: Tensor, p: CrossAttentionParams, rel: Tensor,
                      cfg: HeadConfig) -> Tensor:
    """Logits as relevance-weighted per-concept class scores.

    Equals the single-head readback logits up to floating rounding; that identity
    is what makes the relevance scores a faithful explanation. cfg is not
    read; it stays because perfbench's check_head passes it.
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


def _pathways(params: HeadParams, cfg: HeadConfig) -> list[tuple[str, PathwayParams]]:
    """The configured pathways as (name, params), spatial first."""
    return [(name, p) for name, p in (("spatial", params.spatial), ("global", params.global_))
            if cfg.pathway in (name, "dual")]


def _slot_noise(e_raw: Tensor, cfg: HeadConfig, rng: np.random.Generator,
                pathways: int) -> list[np.ndarray | None]:
    """Each pathway's slot noise (..., C, d) for one forward pass, drawn in
    one call, per sample in sample order and spatial before global within a
    sample: the stream of one call per sample and pathway. boqsa draws none
    (None per pathway)."""
    if cfg.variant == "boqsa":
        return [None] * pathways
    noise = rng.standard_normal(e_raw.shape[:-2] + (pathways, cfg.concepts, cfg.slot_dim))
    return [noise[..., k, :, :] for k in range(pathways)]


def _pathway_forward(e_raw: Tensor, name: str, p: PathwayParams, cfg: HeadConfig,
                     rng: np.random.Generator, eps: np.ndarray | None
                     ) -> tuple[Tensor, Tensor]:
    """One pathway's slot refinement and readback from its slot noise eps:
    the spatial pathway reads the feature rows, the global pathway their
    class_token row. Returns its (map, logits)."""
    inputs = e_raw if name == "spatial" else class_token(e_raw)
    slots = refine_slots(inputs, p.slot, cfg, rng, eps)
    return multi_head_cross_attention(inputs, slots, p.cross, cfg)


def head_forward(e_raw: Tensor, params: HeadParams, cfg: HeadConfig,
                 rng: np.random.Generator) -> HeadOutput:
    """Forward one sample (L, D), or a stack of samples (B, L, D), through the
    configured pathway(s).

    The slot noise of every pathway is drawn up front (_slot_noise); then
    each pathway refines its own slots and reads them back
    (_pathway_forward), spatial first. With pathway="dual" both run, and the
    logits are the mean scale(add(spatial, global), 0.5). A single pathway
    returns its readback logits unchanged.
    """
    pathways = _pathways(params, cfg)
    noise = _slot_noise(e_raw, cfg, rng, len(pathways))
    maps, logits = {}, []
    for (name, p), eps in zip(pathways, noise):
        maps[name], pathway_logits = _pathway_forward(e_raw, name, p, cfg, rng, eps)
        logits.append(pathway_logits)
    joint = logits[0] if len(logits) == 1 else ad.scale(ad.add(*logits), 0.5)
    return HeadOutput(logits=joint, attn_spatial=maps.get("spatial"),
                      attn_global=maps.get("global"))


def explanation_map(e_raw: Tensor, params: HeadParams, cfg: HeadConfig,
                    rng: np.random.Generator) -> Tensor:
    """The map an explanation exports: head_forward's spatial map, or its
    global map when the global pathway is the only one.

    It draws the slot noise of every configured pathway, as head_forward
    does, so it leaves rng in the same state, and then runs only the
    exported pathway, the first. The map equals head_forward's bit for bit;
    the other pathway's values, and the dual logits, are not computed, so a
    non-finite value made only there raises nothing.
    """
    pathways = _pathways(params, cfg)
    noise = _slot_noise(e_raw, cfg, rng, len(pathways))
    attn, _ = _pathway_forward(e_raw, *pathways[0], cfg, rng, noise[0])
    return attn
