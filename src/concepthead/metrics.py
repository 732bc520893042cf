"""Evaluation metrics, attention-map export, and the metrics CSV format.

trainer's pass loop sums the metrics from the forward that gives the losses:
class_acc counts argmax-logit hits (ties go to the lowest class),
concept_top1_acc averages _sample_concept_score over the samples with
targets, and mean_entropy (= loss_sparse) averages the sparsity loss.

Metrics CSV rows are written with 17 significant digits so byte-level diffs
detect any numeric drift. The wall_seconds column is reserved in the schema
but always written as 0 to keep logs reproducible; actual timing goes to
stderr in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, MetricError

__all__ = [
    "METRICS_HEADER",
    "Metrics",
    "export_heatmap",
    "format_metrics_row",
    "parse_metrics_csv",
    "write_topk_csv",
]

METRICS_HEADER = ("epoch,loss_cls,loss_expl,loss_sparse,loss_total,"
                  "class_acc,concept_top1_acc,mean_entropy,wall_seconds")


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


def _sample_concept_score(attn: np.ndarray, target: np.ndarray) -> float | None:
    """Top-1 agreement of one (1, C) map with its target, or the mean over the
    carrier rows (nonzero target) of an (L, C) map; None without carriers."""
    if attn.shape != target.shape:
        raise MetricError(f"attention shape {attn.shape} does not match "
                          f"target shape {target.shape}")
    if attn.shape[0] == 1:
        return 1.0 if int(np.argmax(attn[0])) == int(np.argmax(target[0])) else 0.0
    carrier_rows = np.flatnonzero(target.sum(axis=1) > 0)
    if carrier_rows.size == 0:
        return None
    hits = int(np.count_nonzero(np.argmax(attn[carrier_rows], axis=1)
                                == np.argmax(target[carrier_rows], axis=1)))
    return hits / carrier_rows.size


def export_heatmap(attn: np.ndarray, path: str) -> None:
    """Write a grayscale binary PGM of the map plus a full-precision CSV sibling.

    Pixels scale the map by 255/max (all zero when the map is identically
    zero) and round half away from zero.
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
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes())
    csv_path = path[:-4] + ".csv" if path.endswith(".pgm") else path + ".csv"
    # "%.17g" % x is f"{x:.17g}" (_f17) for every float; one format string
    # renders the whole map at once.
    row = ",".join(["%.17g"] * width) + "\n"
    with open(csv_path, "wb") as fh:
        fh.write(((row * height) % tuple(a.ravel().tolist())).encode("ascii"))


def _f17(x: float) -> str:
    return f"{x:.17g}"


def format_metrics_row(m: Metrics) -> str:
    return ",".join([str(m.epoch), _f17(m.loss_cls), _f17(m.loss_expl),
                     _f17(m.loss_sparse), _f17(m.loss_total), _f17(m.class_acc),
                     _f17(m.concept_top1_acc), _f17(m.mean_entropy), _f17(0.0)])


def parse_metrics_csv(text: str) -> list[Metrics]:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != METRICS_HEADER:
        raise MetricError("metrics CSV header missing or unrecognized")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 9:
            raise MetricError(f"metrics row has {len(parts)} columns, expected 9")
        records.append(Metrics(epoch=int(parts[0]), loss_cls=float(parts[1]),
                               loss_expl=float(parts[2]), loss_sparse=float(parts[3]),
                               loss_total=float(parts[4]), class_acc=float(parts[5]),
                               concept_top1_acc=float(parts[6]),
                               mean_entropy=float(parts[7])))
    return records


def write_topk_csv(rows: Sequence[tuple[int, int, int, float]], path: str) -> None:
    """Per-sample ranked concept relevances: sample_index,rank,concept_index,gamma_value."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("sample_index,rank,concept_index,gamma_value\n")
        for sample_index, rank, concept_index, gamma_value in rows:
            fh.write(f"{sample_index},{rank},{concept_index},{_f17(gamma_value)}\n")
