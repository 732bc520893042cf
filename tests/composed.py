"""The slot-refinement iteration as a chain of autodiff ops: the reference
that `head.slot_step` (one recorded op) is checked against, bit for bit, in
values, errors and gradients. Every op of the chain checks its output, so
its NumericError names the first op that made a non-finite value.

AdamW as a loop over the parameter tensors, the reference for
`trainer.adamw_step`'s one pass over the flat store.

A checkpoint writer without the finite check, for the reader's tests of the
files that `trainer.checkpoint_bytes` refuses to make.

The per-row topk.csv text, the reference for `metrics.write_topk_csv`'s one
format over its arrays."""

from __future__ import annotations

import contextlib
import struct

import numpy as np

from concepthead import autodiff as ad
from concepthead import head as hd
from concepthead import trainer as tr
from concepthead.errors import NumericError, ShapeError


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
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(cfg.slot_dim))  # (..., C, L)
    attn = row_normalize(ad.softmax_axis(scores, axis=-2))
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
