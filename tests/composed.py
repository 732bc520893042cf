"""The slot-refinement iteration as a chain of autodiff ops: the reference
that `head.slot_step` (one recorded op) is checked against, bit for bit, in
values, errors and gradients."""

from __future__ import annotations

import contextlib

import numpy as np

from concepthead import autodiff as ad
from concepthead import head as hd
from concepthead.errors import ShapeError


def row_normalize(a):
    """Divide each row (last axis) by its sum."""
    if a.data.ndim < 2:
        raise ShapeError(f"row_normalize: expected at least 2 axes, got shape {a.shape}")
    sums = a.data.sum(axis=-1, keepdims=True)
    out_data = a.data / sums

    def vjp(g):
        return ((g - (g * out_data).sum(axis=-1, keepdims=True)) / sums,)

    return ad.record(out_data, (a,), vjp, "row_normalize")


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
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(readout, p.wz), ad.matmul(slots, p.uz)), p.bz))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(readout, p.wr), ad.matmul(slots, p.ur)), p.br))
    cand = ad.tanh(ad.add(ad.add(ad.matmul(readout, p.wh),
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
