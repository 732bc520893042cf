"""The benchmark's workloads and the planted-concept inputs it feeds them.

Inputs come from the benchmark's own generator and reach the program only
as EMB1 files, so a change to concepthead's generator cannot change what is
measured. Every workload shares the criterion-6 task: 4 classes, 12 concepts
in blocks of 3 per class, D=d=32, noise 0.3, every row a carrier.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_CLASSES = 4
N_CONCEPTS = 12
DIM = 32
NOISE_STD = 0.3
TOPK = 3


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    iters: int
    pathway: str
    heads: int
    n_inputs: int          # L, rows per sample
    n_train: int           # samples per training epoch
    n_heldout: int         # samples per evaluate call
    n_explain: int         # samples per explain command
    from_checkpoint: bool  # cycles start from a checkpoint saved in set-up
    min_class_acc: float | None = None  # held-out gate; None records only

    @property
    def headline(self) -> str:
        """Phase whose per-sample layer costs the traced run reports."""
        return "eval" if self.from_checkpoint else "train"

    def train_config(self, seed: int):
        from concepthead.head import HeadConfig
        from concepthead.losses import LossWeights
        from concepthead.trainer import TrainConfig
        head = HeadConfig(concepts=N_CONCEPTS, slot_dim=DIM, input_dim=DIM,
                          n_inputs=self.n_inputs, n_classes=N_CLASSES, iters=self.iters,
                          variant=self.variant, heads=self.heads, pathway=self.pathway)
        return TrainConfig(head=head, epochs=1, batch_size=64, lr=2e-3, warmup_iters=10,
                           weight_decay=1e-3, seed=seed,
                           weights=LossWeights(lambda_expl=1.0, lambda_sparse=0.5))


# Why each workload exists, and which mechanism it isolates, is recorded in
# BENCHMARK.json and perfbench/PREDICTIONS.md.
WORKLOADS = {w.name: w for w in (
    Workload("recovery", "sa", 1, "spatial", 1, n_inputs=8, n_train=2000,
             n_heldout=2000, n_explain=32, from_checkpoint=False, min_class_acc=0.95),
    Workload("refine_dual", "isa", 3, "dual", 4, n_inputs=16, n_train=256,
             n_heldout=256, n_explain=16, from_checkpoint=False),
    Workload("explain", "boqsa", 3, "spatial", 4, n_inputs=32, n_train=256,
             n_heldout=512, n_explain=64, from_checkpoint=True),
)}


def planted_concepts(rng: np.random.Generator, protos: np.ndarray, n: int,
                     n_inputs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n samples with exact label marginals: (features, labels, concepts)."""
    per_class = N_CONCEPTS // N_CLASSES
    labels = np.arange(n) % N_CLASSES
    concepts = labels * per_class + rng.integers(per_class, size=n)
    features = NOISE_STD * rng.standard_normal((n, n_inputs, DIM))
    features += protos[concepts][:, None, :]
    return features, labels, concepts


def emb1_bytes(features: np.ndarray, labels: np.ndarray, concepts: np.ndarray) -> bytes:
    """EMB1 file with spatial and global explanation targets (flags = 3)."""
    n, n_inputs, dim = features.shape
    rec = np.zeros(n, dtype=[("x", "<f4", (n_inputs, dim)), ("y", "<u4"),
                             ("hs", "<f4", (n_inputs, N_CONCEPTS)), ("hg", "<f4", (N_CONCEPTS,))])
    rows = np.arange(n)
    rec["x"] = features
    rec["y"] = labels
    rec["hs"][rows, :, concepts] = 1.0
    rec["hg"][rows, concepts] = 1.0
    header = struct.pack("<4sIIIIIB", b"CCTE", 1, n, n_inputs, dim, N_CONCEPTS, 3)
    return header + rec.tobytes()


def write_inputs(w: Workload, seed: int, workdir: Path) -> dict[str, Path]:
    """Write train, held-out and explain EMB1 files; explain is the held-out head."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((DIM, N_CONCEPTS)))
    protos = q.T  # orthonormal concept prototypes, shared by every split
    train = planted_concepts(rng, protos, w.n_train, w.n_inputs)
    heldout = planted_concepts(rng, protos, w.n_heldout, w.n_inputs)
    paths = {name: workdir / f"{name}.emb" for name in ("train", "heldout", "explain")}
    paths["train"].write_bytes(emb1_bytes(*train))
    paths["heldout"].write_bytes(emb1_bytes(*heldout))
    paths["explain"].write_bytes(emb1_bytes(*(a[:w.n_explain] for a in heldout)))
    return paths
