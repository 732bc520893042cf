"""Evaluation metrics, attention-map export, and the metrics CSV format.

trainer's pass loop sums the metrics from the forward that gives the losses:
class_acc counts argmax-logit hits (ties go to the lowest class),
concept_top1_acc averages each sample's concept_top1_scores (their mean
over the sample's maps) over the samples that have a score, and
mean_entropy (= loss_sparse) averages the sparsity loss.

Metrics CSV rows are written with 17 significant digits so byte-level diffs
detect any numeric drift. The wall_seconds column is reserved in the schema
but always written as 0 to keep logs reproducible; actual timing goes to
stderr in the CLI.

Heatmap CSVs hold each map entry as CPython's "%.17g" text. For a map whose
entries all lie in [1e-4, 1) that text comes from a vectorized kernel
(_f17_csv) that is exact, not approximate: it finds each value's 17
significant digits as one integer with Dekker's TwoProduct against a power
of ten that float64 holds exactly (10**n, n <= 22), so the rounding to 17
digits is the exact product's, ties to even, as CPython's. Any other map (one
holding 0, a subnormal, a value below 1e-4 or one of at least 1) gets its text
from "%" formatting (_percent_csv), which is also the tests' reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DomainError, MetricError

__all__ = [
    "METRICS_HEADER",
    "Metrics",
    "concept_top1_scores",
    "export_heatmaps",
    "format_metrics_row",
    "write_topk_csv",
]

@dataclass
class Metrics:
    """One epoch of training or evaluation measurements."""

    epoch: int
    loss_cls: float
    loss_expl: float
    loss_sparse: float
    loss_total: float
    class_acc: float
    concept_top1_acc: float   # NaN when the dataset carries no explanations
    mean_entropy: float


METRICS_HEADER = ",".join([f.name for f in fields(Metrics)] + ["wall_seconds"])


def concept_top1_scores(attn: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-sample top-1 agreement of a (B, R, C) stack of maps with its targets.

    A one-row map (R = 1) scores 1.0 when its argmax concept is the target's,
    else 0.0. A map of several rows scores the share of its carrier rows
    (nonzero target) whose argmax concept is the target's, and NaN without
    carriers. Hits and carriers are counted for the whole stack at once, and
    the (B,) scores come from one division hits / carriers.
    """
    if attn.shape != target.shape or attn.ndim != 3:
        raise MetricError(f"attention shape {attn.shape} does not match "
                          f"target shape {target.shape}")
    match = np.argmax(attn, axis=-1) == np.argmax(target, axis=-1)
    carriers = (np.ones(match.shape, dtype=bool) if attn.shape[1] == 1
                else target.sum(axis=-1) > 0)
    hits = np.count_nonzero(match & carriers, axis=1)
    counts = np.count_nonzero(carriers, axis=1)
    return np.divide(hits, counts, out=np.full(counts.shape, np.nan), where=counts > 0)


def _overwrite(path: str, blob: bytes) -> None:
    """Make the file at path hold exactly blob: the bytes open(path, "wb") would leave.

    An existing file is written in place and cut to length only when it is
    longer than blob, so rerunning explain into the same directory skips the
    truncate-to-zero that open(path, "wb") pays on every existing file. A new
    file gets the mode open() gives it (0o666 less the umask). A character
    device such as /dev/null takes the write and is never truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(blob)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(blob):
            os.ftruncate(fd, len(blob))
    finally:
        os.close(fd)


def export_heatmaps(maps: np.ndarray, paths: Sequence[str]) -> None:
    """Write each (L, C) map of a (B, L, C) stack as a PGM at its path plus a CSV sibling.

    The whole stack is checked (shape, finite, non-negative) before any file
    is written. Pixels scale a map by 255/max (all zero when the map is
    identically zero) and round half away from zero. The CSV holds every
    entry as "%.17g" text: from the exact _f17_csv kernel (see the module
    docstring) for the maps whose entries all lie in [1e-4, 1), from "%"
    formatting (_percent_csv) for the others. An existing file is rewritten
    in place (see _overwrite): explain reruns into one directory, and
    truncating each file to zero before writing it again cost more than the
    write.
    """
    a = np.asarray(maps, dtype=np.float64)
    if a.ndim != 3:
        raise DomainError(f"heatmap export expects a 2-D map, got shape {a.shape[1:]}")
    if len(paths) != len(a):
        raise DomainError(f"heatmap export got {len(paths)} paths for {len(a)} maps")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise DomainError("heatmap export expects finite non-negative values")
    peak = a.max(axis=(1, 2), keepdims=True)
    scale = np.divide(255.0, peak, out=np.zeros_like(peak), where=peak != 0)
    pixels = np.floor(a * scale + 0.5).astype(np.uint8)
    header = f"P5\n{a.shape[2]} {a.shape[1]}\n255\n".encode("ascii")
    fast = ((a >= 1e-4) & (a < 1.0)).all(axis=(1, 2))
    texts = iter(_f17_csv(a[fast]))
    for path, attn, image, in_range in zip(paths, a, pixels, fast):
        _overwrite(path, header + image.tobytes())
        csv_path = path[:-4] + ".csv" if path.endswith(".pgm") else path + ".csv"
        _overwrite(csv_path, next(texts) if in_range else _percent_csv(attn))


def _percent_csv(a: np.ndarray) -> bytes:
    """The CSV text of one (L, C) map by CPython's "%.17g": the reference for
    _f17_csv and the text of every map it does not take."""
    height, width = a.shape
    row = ",".join(["%.17g"] * width) + "\n"
    return ((row * height) % tuple(a.ravel().tolist())).encode("ascii")


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles into high and low halves of at most 26 bits each, hi + lo == a."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** n) for n in range(23)])  # exact: 5**22 < 2**53
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _digits17(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(x * 10**(16 - k)) as int64, exact when the product is >= 2**53.

    p = fl(x * 10**n) and its rounding error e come from Dekker's TwoProduct,
    each product its own NumPy op, so p + e is the exact product. A double
    >= 2**53 is an even integer, so the nearest integer to p + e, ties to
    even, is p + rint(e).
    """
    n = 16 - k
    p = x * _POW10[n]
    xh, xl = _veltkamp(x)
    ph, pl = _POW10_HI[n], _POW10_LO[n]
    e = xl * pl - (((p - xh * ph) - xl * ph) - xh * pl)
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _head_words() -> np.ndarray:
    """The 8-byte head of a value's text, indexed by 40 * separator + 10 * zeros +
    leading digit: the separator before the value ("," or "\n"), "0.", the
    zeros after the point (0 to 3, then NUL pad), the digit and a NUL."""
    head = np.zeros((2, 4, 10, 8), np.uint8)
    head[..., 0] = np.array([ord(","), ord("\n")])[:, None, None]
    head[..., 1:3] = np.frombuffer(b"0.", np.uint8)
    head[..., 3:6] = np.where(np.arange(3) < np.arange(4)[:, None], ord("0"), 0)[:, None]
    head[..., 6] = ord("0") + np.arange(10)
    return head.view(np.uint64).ravel()


def _group_words() -> np.ndarray:
    """Four decimal digits as one 32-bit word, indexed by the group's value
    (0 to 9999) plus 10000 when the text ends with this group: then its
    trailing zeros are NUL."""
    text = np.empty((10, 10, 10, 10, 4), np.uint8)  # text[a, b, c, d] is "abcd"
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j in range(4):
        text[..., j] = digits.reshape((10,) + (1,) * (3 - j))
    text = text.reshape(10000, 4)
    kept = text != ord("0")
    for j in (2, 1, 0):
        kept[:, j] |= kept[:, j + 1]  # a nonzero digit here or after
    return np.stack([text, text * kept]).view(np.uint32).ravel()


_HEADS = _head_words()
_GROUPS = _group_words()


def _f17_csv(maps: np.ndarray) -> list[bytes]:
    """The CSV text of each (L, C) map of a (B, L, C) stack whose entries all
    lie in [1e-4, 1): byte for byte what _percent_csv gives.

    In that range "%.17g" writes "0.", then -1 - k zeros (0 to 3), then the
    17 significant digits D = round-half-even(x * 10**(16 - k)) less their
    trailing zeros, where k is the decimal exponent of x rounded to 17
    digits, so that 10**16 <= D < 10**17. k starts as floor(log10 x), which
    can be one off only next to a power of ten, where x * 10**(16 - k) is
    close to 10**16 or 10**17 and so above 2**53: _digits17 is exact there
    too, and k moves by one wherever D falls outside [10**16, 10**17).

    Each value fills 24 bytes: an 8-byte head (the separator before it,
    "0.", the zeros and the leading digit; see _head_words) and four 4-digit
    groups (_group_words), every store a whole 64- or 32-bit word. Every row
    starts with "\n" in place of a separator, so with the NUL bytes gone the
    text of a map runs from after its first row's "\n" to the next map's,
    plus one "\n".
    """
    count, height, width = maps.shape
    k = np.floor(np.log10(maps)).astype(np.intp)
    d = _digits17(maps, k)
    wrong = (d < 10 ** 16) | (d >= 10 ** 17)
    if wrong.any():
        k[wrong] += np.where(d[wrong] < 10 ** 16, -1, 1)
        d[wrong] = _digits17(maps[wrong], k[wrong])
    high = d // 10 ** 8              # the leading digit, then groups 0 and 1
    low = d - high * 10 ** 8         # groups 2 and 3
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    g0, g2 = high // 10 ** 4, low // 10 ** 4
    groups = [g0, high - g0 * 10 ** 4, g2, low - g2 * 10 ** 4]
    tail = groups[3] == 0            # every group after the one at hand is zero
    groups[3] += 10000
    for g in groups[2::-1]:
        zero = g == 0
        np.add(g, 10000, out=g, where=tail)
        tail &= zero
    text = np.empty((count, height, width, 3), np.uint64)
    separator = np.where(np.arange(width) == 0, 40, 0)  # "\n" before a row, else ","
    text[..., 0] = _HEADS[separator + 10 * (-1 - k) + lead]
    words = text.view(np.uint32)
    for i, g in enumerate(groups):
        words[..., 2 + i] = _GROUPS[g]
    blob = text.tobytes().translate(None, b"\0")
    starts = np.flatnonzero(np.frombuffer(blob, np.uint8) == ord("\n"))[::height].tolist()
    return [blob[a + 1:b] + b"\n" for a, b in zip(starts, starts[1:] + [len(blob)])]


def _f17(x: float) -> str:
    return f"{x:.17g}"


def format_metrics_row(m: Metrics) -> str:
    return ",".join([str(m.epoch)] + [_f17(getattr(m, f.name)) for f in fields(Metrics)[1:]]
                    + [_f17(0.0)])


def write_topk_csv(samples: np.ndarray, order: np.ndarray, gamma: np.ndarray,
                   path: str) -> None:
    """Per-sample ranked concept relevances: sample_index,rank,concept_index,gamma_value.

    samples (N,) holds the sample indices, order (N, k) each sample's concept
    indices by rank and gamma (N, k) their relevances: one line per sample
    and rank 1..k, gamma as "%.17g" text. The whole text is one "%" format
    over the four columns, and an existing file is rewritten in place (see
    _overwrite) for the reason export_heatmaps gives: a rerun of explain into
    the same directory need not truncate the previous topk.csv first.
    """
    rows, k = np.shape(order)
    cells: list = [None] * (4 * rows * k)
    cells[0::4] = np.repeat(samples, k).tolist()
    cells[1::4] = list(range(1, k + 1)) * rows
    cells[2::4] = np.ravel(order).tolist()
    cells[3::4] = np.ravel(gamma).tolist()
    text = "sample_index,rank,concept_index,gamma_value\n" + (
        "%d,%d,%d,%.17g\n" * (rows * k)) % tuple(cells)
    _overwrite(path, text.encode("ascii"))
