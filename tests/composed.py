"""The slot-refinement iteration as a chain of autodiff ops: the reference
that `head.slot_step` (one recorded op) is checked against, bit for bit, in
values, errors and gradients. Every op of the chain checks its output, so
its NumericError names the first op that made a non-finite value.

The readback as a chain of autodiff ops (the head-axis ops split_heads,
merge_heads and sum_heads, transpose and softmax_axis among them): the
reference for `head.multi_head_cross_attention`'s three recorded ops.

AdamW as a loop over the parameter tensors, the reference for
`trainer.adamw_step`'s one pass over the flat store.

A checkpoint writer without the finite check, for the reader's tests of the
files that `trainer.checkpoint_bytes` refuses to make.

The per-row topk.csv text, the reference for `metrics.write_topk_csv`'s one
format over its arrays.

A central-difference gradient checker, the reference every hand-written
VJP and the whole head's gradient (criterion 1) are checked against."""

from __future__ import annotations

import contextlib
import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from concepthead import autodiff as ad
from concepthead import head as hd
from concepthead import trainer as tr
from concepthead.errors import NumericError, ShapeError


def _swap_last(x):
    return np.swapaxes(x, -1, -2)


def transpose(a):
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected at least 2 axes, got shape {a.shape}")

    def vjp(g):
        return (_swap_last(g),)

    # a copy of finite values
    return ad.record(_swap_last(a.data), (a,), vjp, "transpose", finite=True)


def split_heads(a, heads):
    """(..., L, d) -> contiguous (..., heads, L, d/heads): head j takes columns
    [j*d/heads, (j+1)*d/heads). One head returns a itself, adding no node."""
    if heads == 1:
        return a
    if a.data.ndim < 2 or heads < 1 or a.shape[-1] % heads != 0:
        raise ShapeError(f"split_heads: cannot split shape {a.shape} into {heads} heads")
    shape = a.shape
    cols = shape[-1]

    def vjp(g):
        return (np.swapaxes(g, -3, -2).reshape(shape),)

    # a copy of finite values
    return ad.record(np.swapaxes(a.data.reshape(shape[:-1] + (heads, cols // heads)), -3, -2),
                     (a,), vjp, "split_heads", finite=True)


def merge_heads(a, heads):
    """Inverse of split_heads: (..., heads, L, dh) -> (..., L, heads*dh). One
    head returns a itself."""
    if heads == 1:
        return a
    if a.data.ndim < 3 or a.shape[-3] != heads:
        raise ShapeError(f"merge_heads: shape {a.shape} does not stack {heads} heads")
    lead, (rows, width) = a.shape[:-3], a.shape[-2:]

    def vjp(g):
        return (np.swapaxes(g.reshape(lead + (rows, heads, width)), -3, -2),)

    # a copy of finite values
    return ad.record(np.swapaxes(a.data, -3, -2).reshape(lead + (rows, heads * width)), (a,),
                     vjp, "merge_heads", finite=True)


def sum_heads(a, heads):
    """Sum over the head axis (-3), adding heads 0, 1, ..., h-1 in that order.
    One head returns a itself."""
    if heads == 1:
        return a
    if a.data.ndim < 3 or a.shape[-3] != heads:
        raise ShapeError(f"sum_heads: shape {a.shape} does not stack {heads} heads")
    shape = a.shape

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, -3), shape),)

    return ad.record(functools.reduce(np.add, (a.data[..., j, :, :] for j in range(heads))),
                     (a,), vjp, "sum_heads")


# The longest axis whose max axis_max takes as np.maximum over its slices.
MAX_BY_SLICES = 16


def axis_max(x, axis):
    """x.max(axis=axis, keepdims=True): for an axis of at most MAX_BY_SLICES
    entries, np.maximum over its slices in order. A max is exact, so both
    ways give the same values."""
    n = x.shape[axis]
    if not 1 < n <= MAX_BY_SLICES:
        return x.max(axis=axis, keepdims=True)
    lead = (slice(None),) * (axis % x.ndim)
    out = np.maximum(x[lead + (slice(0, 1),)], x[lead + (slice(1, 2),)])
    for j in range(2, n):
        np.maximum(out, x[lead + (slice(j, j + 1),)], out=out)
    return out


def softmax_axis(a, axis):
    """exp(x - max) / sum along axis. The row max is axis_max's; the sum is
    np.sum's, whose pairwise order fixes the output bits."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax_axis: axis {axis} invalid for shape {a.shape}")
    shifted = a.data - axis_max(a.data, axis)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (out_data * (g - (g * out_data).sum(axis=axis, keepdims=True)),)

    # the shifted exps lie in [0, 1] and sum to at least 1 (the max's is 1)
    return ad.record(out_data, (a,), vjp, "softmax_axis", finite=True)


def row_normalize(a):
    """Divide each row (last axis) by its sum."""
    if a.data.ndim < 2:
        raise ShapeError(f"row_normalize: expected at least 2 axes, got shape {a.shape}")
    sums = a.data.sum(axis=-1, keepdims=True)
    out_data = a.data / sums

    def vjp(g):
        return ((g - (g * out_data).sum(axis=-1, keepdims=True)) / sums,)

    return ad.record(out_data, (a,), vjp, "row_normalize")


def sigmoid(a):
    with np.errstate(over="ignore"):  # exp(-x) -> inf is a correct 0.0 output
        out_data = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * out_data * (1.0 - out_data),)

    return ad.record(out_data, (a,), vjp, "sigmoid")


def tanh(a):
    out_data = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out_data * out_data),)

    return ad.record(out_data, (a,), vjp, "tanh")


def slot_attention(inputs, slots, p, cfg):
    """Competitive attention of already-normed slots over already-normed
    inputs: the renormalized map (..., C, L) and the readout (..., C, d)."""
    q = ad.matmul(slots, p.wq)
    k = ad.matmul(inputs, p.wk)
    v = ad.matmul(inputs, p.wv)
    scores = ad.scale(ad.matmul(q, transpose(k)), 1.0 / np.sqrt(cfg.slot_dim))  # (..., C, L)
    attn = row_normalize(softmax_axis(scores, axis=-2))
    return attn, ad.matmul(attn, v)


def gru_update(slots, readout, p):
    """One GRU step per slot row; readout is the input, slots the hidden state."""
    z = sigmoid(ad.add(ad.add(ad.matmul(readout, p.wz), ad.matmul(slots, p.uz)), p.bz))
    r = sigmoid(ad.add(ad.add(ad.matmul(readout, p.wr), ad.matmul(slots, p.ur)), p.br))
    cand = tanh(ad.add(ad.add(ad.matmul(readout, p.wh),
                                 ad.matmul(ad.mul(r, slots), p.uh)), p.bh))
    # (1 - z) * slots + z * cand
    return ad.add(slots, ad.mul(z, ad.sub(cand, slots)))


def iterate(inputs, slots, p, cfg):
    """One iteration over layer-normed inputs: the new slots and the map."""
    slots = ad.layer_norm(slots, p.ln_slot_gain, p.ln_slot_bias)
    attn, readout = slot_attention(inputs, slots, p, cfg)
    return gru_update(slots, readout, p), attn


def refine_slots(e_raw, p, cfg, rng, eps=None):
    """head.refine_slots with every iteration composed."""
    inputs = ad.layer_norm(e_raw, p.ln_input_gain, p.ln_input_bias)
    with ad.no_grad() if cfg.variant == "isa" else contextlib.nullcontext():
        slots = hd.init_slots(p, cfg, rng, e_raw.shape[:-2], eps)
        for _ in range(cfg.iters - 1):
            slots, _ = iterate(inputs, slots, p, cfg)
    return ad.add(iterate(inputs, slots, p, cfg)[0], p.positions)


def attention(q, k, cfg):
    """The per-head maps (..., h, L, C) from the split queries (..., h, L,
    d/h) and keys (..., h, C, d/h): scaled scores softmaxed across concepts
    per input row, so every row sums to 1."""
    scores = ad.scale(ad.matmul(q, transpose(k)), 1.0 / np.sqrt(cfg.slot_dim // cfg.heads))
    return softmax_axis(scores, axis=-1)


def head_mean(attn, heads):
    """The exported map: the per-head maps summed in head order, then
    scaled by 1/h; with one head the map itself."""
    mean = sum_heads(attn, heads)
    return ad.scale(mean, 1.0 / heads) if heads > 1 else mean


def multi_head_cross_attention(e_raw, slots, p, cfg):
    """head.multi_head_cross_attention as a chain of ops: (map, logits)."""
    h = cfg.heads
    q_full = ad.matmul(e_raw, p.wq)
    k_full = ad.matmul(slots, p.wk)
    v_full = ad.matmul(slots, p.wv)
    q, k, v = (split_heads(t, h) for t in (q_full, k_full, v_full))
    attn = attention(q, k, cfg)
    merged = merge_heads(ad.matmul(attn, v), h)
    logits = ad.reduce_mean_axis(ad.matmul(merged, p.out), axis=-2)
    return head_mean(attn, h), logits


def adamw_step(named, m, v, t, weight_decay, lr_t):
    """trainer.adamw_step one tensor at a time: named yields (name, Tensor),
    m and v map each name to its moment array, and t counts this step (1
    for the first). Each tensor's data and moments change in place; a
    missing grad counts as zero."""
    b1, b2 = tr.ADAM_BETAS
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in named:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r} "
                               f"at optimizer step {t}")
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + tr.ADAM_EPS)
        p.data -= lr_t * update
        if weight_decay != 0.0:
            p.data -= lr_t * weight_decay * p.data


def unchecked_checkpoint_bytes(state, cfg):
    """trainer.checkpoint_bytes(state, cfg) as it would read with no finite
    check: each non-finite store value is written as a distinct finite
    stand-in, which is then replaced in the bytes. The store is left as it
    was."""
    flat = state.opt.flat
    spots = [(values, i, values[i]) for values in flat
             for i in np.flatnonzero(~np.isfinite(values))]
    stand_ins = [struct.pack("<d", 1e-300 * (n + 3.5)) for n in range(len(spots))]
    for (values, i, _), stand_in in zip(spots, stand_ins):
        values[i] = struct.unpack("<d", stand_in)[0]
    try:
        blob = tr.checkpoint_bytes(state, cfg)
    finally:
        for values, i, bad in spots:
            values[i] = bad
    for (_, _, bad), stand_in in zip(spots, stand_ins):
        assert blob.count(stand_in) == 1
        blob = blob.replace(stand_in, struct.pack("<d", bad))
    return blob


def per_row_topk_csv(rows):
    """topk.csv's bytes from (sample_index, rank, concept_index, gamma) rows,
    one f-string per row."""
    lines = ["sample_index,rank,concept_index,gamma_value\n"]
    lines.extend(f"{i},{rank},{c},{gamma:.17g}\n" for i, rank, c, gamma in rows)
    return "".join(lines).encode("ascii")


@dataclass
class GradCheckReport:
    """Central-difference check outcome over a set of parameters."""

    max_rel_error: float
    tol: float
    passed: bool
    n_coords: int
    worst: tuple[str, int] | None = None
    failures: list[str] = field(default_factory=list)


def grad_check(f: Callable[[], ad.Tensor],
               params: Iterable[tuple[str, ad.Tensor]],
               h: float = 1e-6,
               tol: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients of f() against central differences.

    f rebuilds its forward pass on every call and must depend on the given
    parameters only through their .data buffers. Relative error per
    coordinate is |ga - gn| / (|ga| + |gn| + 1e-12).
    """
    params = list(params)
    for _, p in params:
        p.reset_grad()
    loss = f()
    ad.backward(loss)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params}

    max_rel = 0.0
    worst = None
    failures: list[str] = []
    n_coords = 0
    for name, p in params:
        flat = p.data.reshape(-1)
        ga_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            n_coords += 1
            saved = flat[i]
            try:
                flat[i] = saved + h
                f_plus = float(f().data)
                flat[i] = saved - h
                f_minus = float(f().data)
            except NumericError:
                failures.append(f"{name}[{i}]: non-finite objective")
                flat[i] = saved
                continue
            finally:
                flat[i] = saved
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                failures.append(f"{name}[{i}]: non-finite objective")
                continue
            gn = (f_plus - f_minus) / (2.0 * h)
            ga = ga_flat[i]
            rel = abs(ga - gn) / (abs(ga) + abs(gn) + 1e-12)
            if rel > max_rel:
                max_rel = rel
                worst = (name, i)
    return GradCheckReport(
        max_rel_error=max_rel,
        tol=tol,
        passed=(max_rel < tol and not failures),
        n_coords=n_coords,
        worst=worst,
        failures=failures,
    )
