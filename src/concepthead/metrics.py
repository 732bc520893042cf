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
    "export_heatmap",
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


def export_heatmap(attn: np.ndarray, path: str) -> None:
    """Write a grayscale binary PGM of the map plus a full-precision CSV sibling.

    Pixels scale the map by 255/max (all zero when the map is identically
    zero) and round half away from zero. An existing file is rewritten in
    place (see _overwrite): explain reruns into one directory, and truncating
    each file to zero before writing it again cost more than the write.
    """
    a = np.asarray(attn, dtype=np.float64)
    if a.ndim != 2:
        raise DomainError(f"heatmap export expects a 2-D map, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise DomainError("heatmap export expects finite non-negative values")
    peak = a.max()
    scaled = np.zeros_like(a) if peak == 0 else a * (255.0 / peak)
    pixels = np.floor(scaled + 0.5).astype(np.uint8)
    height, width = a.shape
    _overwrite(path, f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes())
    csv_path = path[:-4] + ".csv" if path.endswith(".pgm") else path + ".csv"
    # "%.17g" % x is f"{x:.17g}" (_f17) for every float; one format string
    # renders the whole map at once.
    row = ",".join(["%.17g"] * width) + "\n"
    _overwrite(csv_path, ((row * height) % tuple(a.ravel().tolist())).encode("ascii"))


def _f17(x: float) -> str:
    return f"{x:.17g}"


def format_metrics_row(m: Metrics) -> str:
    return ",".join([str(m.epoch)] + [_f17(getattr(m, f.name)) for f in fields(Metrics)[1:]]
                    + [_f17(0.0)])


def write_topk_csv(rows: Sequence[tuple[int, int, int, float]], path: str) -> None:
    """Per-sample ranked concept relevances: sample_index,rank,concept_index,gamma_value.

    The text is built once, and an existing file is rewritten in place (see
    _overwrite) for the reason export_heatmap gives: a rerun of explain into
    the same directory need not truncate the previous topk.csv first.
    """
    lines = ["sample_index,rank,concept_index,gamma_value\n"]
    lines.extend(f"{sample_index},{rank},{concept_index},{_f17(gamma_value)}\n"
                 for sample_index, rank, concept_index, gamma_value in rows)
    _overwrite(path, "".join(lines).encode("ascii"))
