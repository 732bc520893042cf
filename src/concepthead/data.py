"""Synthetic planted-concept datasets and the EMB1 embedding file format.

Each synthetic sample plants one concept prototype into a subset of its
feature rows (the carriers), which gives exact ground-truth explanation
matrices: one-hot carrier rows spatially, a one-hot concept vector globally.

EMB1 layout (little-endian): magic "CCTE", u32 version=1, u32 N, u32 L,
u32 D, u32 C (0 when no explanations), u8 flags (bit0 spatial H, bit1
global H); then per sample: L*D float32 row-major features, u32 label,
optional L*C float32 spatial H, optional C float32 global H. Values are
float32 on disk and widened to float64 in memory.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError

__all__ = [
    "EMB_MAGIC",
    "EMB_VERSION",
    "SynthConfig",
    "Sample",
    "Dataset",
    "ByteReader",
    "block_concept_map",
    "build_explanations",
    "gen_synthetic",
    "write_emb",
    "read_emb",
]

EMB_MAGIC = b"CCTE"
EMB_VERSION = 1

_U32_MAX = 2**32 - 1


@dataclass(frozen=True)
class SynthConfig:
    """Shape and difficulty knobs for the planted-concept generator."""

    n_classes: int
    n_concepts: int
    concepts_per_class: tuple[tuple[int, ...], ...]  # class index -> concept ids
    n_inputs: int        # feature rows per sample (L)
    input_dim: int       # feature dimension (D)
    noise_std: float
    samples_per_class: int
    carrier_fraction: float = 1.0
    orthogonalize: bool = True

    def __post_init__(self):
        if len(self.concepts_per_class) != self.n_classes:
            raise ConfigError("concepts_per_class must list one concept subset per class")
        if any(len(subset) == 0 for subset in self.concepts_per_class):
            raise ConfigError("every class needs at least one concept")
        covered = {c for subset in self.concepts_per_class for c in subset}
        if covered != set(range(self.n_concepts)):
            raise ConfigError("class concept subsets must cover all concepts exactly")
        if not 0.0 < self.carrier_fraction <= 1.0:
            raise ConfigError(f"carrier_fraction must be in (0, 1], got {self.carrier_fraction}")
        if self.orthogonalize and self.input_dim < self.n_concepts:
            raise ConfigError(f"orthogonal prototypes need input_dim >= n_concepts "
                              f"({self.input_dim} < {self.n_concepts})")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ConfigError(f"noise_std must be >= 0 and finite, got {self.noise_std}")
        if self.samples_per_class < 1:
            raise ConfigError(f"samples_per_class must be >= 1, got {self.samples_per_class}")

    @property
    def n_carriers(self) -> int:
        return int(np.ceil(self.carrier_fraction * self.n_inputs))


@dataclass
class Sample:
    features: np.ndarray                # (L, D) float64
    label: int
    h_spatial: np.ndarray | None = None  # (L, C)
    h_global: np.ndarray | None = None   # (1, C)
    concept: int | None = None           # planted concept, when known


@dataclass
class Dataset:
    samples: list[Sample] = field(default_factory=list)
    n_classes: int = 0
    n_concepts: int = 0
    n_inputs: int = 0
    input_dim: int = 0

    def __len__(self) -> int:
        return len(self.samples)


def block_concept_map(n_classes: int, n_concepts: int) -> tuple[tuple[int, ...], ...]:
    """Partition concepts into contiguous per-class blocks (nearly equal sizes)."""
    if n_concepts < n_classes:
        raise ConfigError("need at least one concept per class")
    bounds = np.linspace(0, n_concepts, n_classes + 1).astype(int)
    return tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(n_classes))


def build_explanations(carriers: np.ndarray, concept: int, n_inputs: int,
                       n_concepts: int) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth maps: carrier rows one-hot at the planted concept."""
    h_spatial = np.zeros((n_inputs, n_concepts))
    h_spatial[np.asarray(carriers, dtype=int), concept] = 1.0
    h_global = np.zeros((1, n_concepts))
    h_global[0, concept] = 1.0
    return h_spatial, h_global


def make_prototypes(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """(C, D) unit-norm prototype rows, Gram-Schmidt orthogonalized when asked."""
    protos = rng.normal(size=(cfg.n_concepts, cfg.input_dim))
    if cfg.orthogonalize:
        for i in range(cfg.n_concepts):
            for j in range(i):
                protos[i] -= (protos[i] @ protos[j]) * protos[j]
            protos[i] /= np.linalg.norm(protos[i])
    else:
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    return protos


def gen_synthetic(cfg: SynthConfig, seed: int,
                  prototype_seed: int | None = None) -> Dataset:
    """Deterministic planted-concept dataset; label marginals are exact.

    prototype_seed fixes the concept prototypes independently of the sample
    draws, so train and held-out sets generated with different seeds can
    share one underlying task.
    """
    rng = np.random.default_rng(seed)
    protos = make_prototypes(cfg, rng if prototype_seed is None
                             else np.random.default_rng(prototype_seed))
    samples = []
    for cls, subset in enumerate(cfg.concepts_per_class):
        for _ in range(cfg.samples_per_class):
            concept = int(subset[rng.integers(len(subset))])
            carriers = np.sort(rng.permutation(cfg.n_inputs)[:cfg.n_carriers])
            features = cfg.noise_std * rng.standard_normal((cfg.n_inputs, cfg.input_dim))
            features[carriers] += protos[concept]
            h_spatial, h_global = build_explanations(
                carriers, concept, cfg.n_inputs, cfg.n_concepts)
            samples.append(Sample(features=features, label=cls, h_spatial=h_spatial,
                                  h_global=h_global, concept=concept))
    return Dataset(samples=samples, n_classes=cfg.n_classes, n_concepts=cfg.n_concepts,
                   n_inputs=cfg.n_inputs, input_dim=cfg.input_dim)


def write_emb(dataset: Dataset, path: str) -> None:
    """Serialize a dataset to EMB1 bytes at path."""
    with open(path, "wb") as fh:
        fh.write(emb_bytes(dataset))


def emb_bytes(dataset: Dataset) -> bytes:
    n = len(dataset.samples)
    has_spatial = n > 0 and dataset.samples[0].h_spatial is not None
    has_global = n > 0 and dataset.samples[0].h_global is not None
    n_concepts = dataset.n_concepts if (has_spatial or has_global) else 0
    flags = (1 if has_spatial else 0) | (2 if has_global else 0)
    dims = (n, dataset.n_inputs, dataset.input_dim, n_concepts)
    if any(not 0 <= v <= _U32_MAX for v in dims):
        raise FormatError(f"dimension overflow: {dims}")
    out = bytearray()
    out += struct.pack("<4sIIIIIB", EMB_MAGIC, EMB_VERSION, *dims, flags)
    for i, s in enumerate(dataset.samples):
        if s.features.shape != (dataset.n_inputs, dataset.input_dim):
            raise FormatError(f"sample {i} features shape {s.features.shape} does not "
                              f"match dataset ({dataset.n_inputs}, {dataset.input_dim})")
        if (s.h_spatial is not None) != has_spatial or (s.h_global is not None) != has_global:
            raise FormatError(f"sample {i} explanation presence differs from sample 0")
        out += s.features.astype("<f4").tobytes()
        out += struct.pack("<I", s.label)
        if has_spatial:
            out += np.asarray(s.h_spatial).astype("<f4").tobytes()
        if has_global:
            out += np.asarray(s.h_global).astype("<f4").tobytes()
    return bytes(out)


class ByteReader:
    """Little-endian byte cursor; a short read names `what` and its byte offset."""

    def __init__(self, blob: bytes, what: str):
        self.blob = blob
        self.what = what
        self.offset = 0

    def take(self, size: int) -> bytes:
        if self.offset + size > len(self.blob):
            raise FormatError(f"truncated {self.what}", offset=self.offset)
        piece = self.blob[self.offset:self.offset + size]
        self.offset += size
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def array(self, shape: tuple[int, ...], dtype: str) -> np.ndarray:
        """Read prod(shape) values of dtype, widened to a fresh float64 array."""
        count = math.prod(shape)
        raw = np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype=dtype)
        return raw.astype(np.float64).reshape(shape)


def read_emb(path: str) -> Dataset:
    """Parse an EMB1 file; inverse of write_emb up to float32 rounding of inputs."""
    with open(path, "rb") as fh:
        return parse_emb(fh.read())


def parse_emb(blob: bytes) -> Dataset:
    r = ByteReader(blob, "payload")
    magic = r.take(4)
    if magic != EMB_MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    version = r.u32()
    if version != EMB_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    n, n_inputs, input_dim, n_concepts = r.u32(), r.u32(), r.u32(), r.u32()
    flags = r.take(1)[0]
    if flags & ~0x3:
        raise FormatError(f"unknown flag bits 0x{flags:02x}", offset=24)
    has_spatial, has_global = bool(flags & 1), bool(flags & 2)
    if (has_spatial or has_global) and n_concepts == 0:
        raise FormatError("explanation flags set but concept count is zero", offset=24)
    body = r.offset
    fields = [("features", "<f4", (n_inputs, input_dim)), ("label", "<u4")]
    if has_spatial:
        fields.append(("h_spatial", "<f4", (n_inputs, n_concepts)))
    if has_global:
        fields.append(("h_global", "<f4", (1, n_concepts)))
    try:
        record = np.dtype(fields)
    except ValueError as err:  # a record NumPy cannot describe: no file holds one
        raise FormatError(f"sample dimensions (L={n_inputs}, D={input_dim}, C={n_concepts}) "
                          f"are too large: {err}", offset=12) from err
    end = body + n * record.itemsize
    if end > len(blob):
        whole, rest = divmod(len(blob) - body, record.itemsize)
        at = min(offset for dt, offset in record.fields.values() if offset + dt.itemsize > rest)
        raise FormatError("truncated payload", offset=body + whole * record.itemsize + at)
    if end < len(blob):
        raise FormatError("trailing bytes after last sample", offset=end)
    # One view of the fixed-size records; each float field is widened once
    # for all samples, and each sample holds its slice.
    records = np.frombuffer(blob, record, count=n, offset=body)
    with np.errstate(invalid="ignore"):  # widening a signaling NaN; rejected below
        values = {name: records[name].astype(np.float64) for name, *_ in fields
                  if name != "label"}
    bad = []  # (first sample holding NaN/Inf, field order, field) per field
    for k, (name, block) in enumerate(values.items()):
        rows = np.flatnonzero(~np.isfinite(block).all(axis=(1, 2)))
        if rows.size:
            bad.append((int(rows[0]), k, name))
    if bad:
        i, _, name = min(bad)
        raise FormatError(f"sample {i} has non-finite {name} values",
                          offset=body + i * record.itemsize + record.fields[name][1])
    no_target = [None] * n
    samples = [Sample(features=f, label=y, h_spatial=hs, h_global=hg) for f, y, hs, hg in zip(
        values["features"], records["label"].tolist(), values.get("h_spatial", no_target),
        values.get("h_global", no_target))]
    n_classes = 1 + max((s.label for s in samples), default=-1)
    return Dataset(samples=samples, n_classes=n_classes, n_concepts=n_concepts,
                   n_inputs=n_inputs, input_dim=input_dim)
