"""Evaluation metrics, attention-map export, and the metrics CSV format.

Metrics CSV rows are written with 17 significant digits so byte-level diffs
detect any numeric drift. The wall_seconds column is reserved in the schema
but always written as 0 to keep logs reproducible; actual timing goes to
stderr in the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, MetricError
from .losses import LOG_FLOOR

__all__ = [
    "METRICS_HEADER",
    "Metrics",
    "class_accuracy",
    "concept_top1_accuracy",
    "attention_entropy",
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


def class_accuracy(logits: Sequence[np.ndarray], labels: Sequence[int]) -> float:
    """Fraction of samples whose argmax logit hits the label; ties to lowest index."""
    if len(logits) == 0:
        raise MetricError("class accuracy undefined on an empty batch")
    if len(logits) != len(labels):
        raise MetricError(f"got {len(logits)} logit vectors for {len(labels)} labels")
    hits = sum(1 for out, y in zip(logits, labels) if int(np.argmax(out)) == y)
    return hits / len(logits)


def _sample_concept_score(attn: np.ndarray, target: np.ndarray) -> float | None:
    if attn.shape != target.shape:
        raise MetricError(f"attention shape {attn.shape} does not match "
                          f"target shape {target.shape}")
    if attn.shape[0] == 1:
        return 1.0 if int(np.argmax(attn[0])) == int(np.argmax(target[0])) else 0.0
    carrier_rows = np.flatnonzero(target.sum(axis=1) > 0)
    if carrier_rows.size == 0:
        return None
    hits = sum(1 for r in carrier_rows
               if int(np.argmax(attn[r])) == int(np.argmax(target[r])))
    return hits / carrier_rows.size


def concept_top1_accuracy(attn_maps: Sequence[np.ndarray | None],
                          targets: Sequence[np.ndarray | None]) -> float:
    """Mean per-sample agreement between top-1 attended and target concepts.

    (1, C) maps compare whole-sample argmax concepts; (L, C) maps compare
    per carrier row (rows where the target is nonzero) and average within
    the sample. Samples without targets are skipped.
    """
    scores = []
    for attn, target in zip(attn_maps, targets):
        if attn is None or target is None:
            continue
        score = _sample_concept_score(np.asarray(attn), np.asarray(target))
        if score is not None:
            scores.append(score)
    if not scores:
        raise MetricError("concept accuracy undefined: no samples carry explanations")
    return sum(scores) / len(scores)


def attention_entropy(attn: np.ndarray) -> float:
    """Mean elementwise -a*ln(a); identical to the sparsity loss value."""
    a = np.asarray(attn)
    return float((a * np.log(np.maximum(a, LOG_FLOOR))).sum() * (-1.0 / a.size))


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


def metrics_equal(a: Metrics, b: Metrics) -> bool:
    def eq(x: float, y: float) -> bool:
        return (math.isnan(x) and math.isnan(y)) or x == y
    return (a.epoch == b.epoch and eq(a.loss_cls, b.loss_cls)
            and eq(a.loss_expl, b.loss_expl) and eq(a.loss_sparse, b.loss_sparse)
            and eq(a.loss_total, b.loss_total) and eq(a.class_acc, b.class_acc)
            and eq(a.concept_top1_acc, b.concept_top1_acc)
            and eq(a.mean_entropy, b.mean_entropy))
