"""Synthetic planted-concept datasets and the EMB1 embedding file format.

Each synthetic sample plants one concept prototype into a subset of its
feature rows (the carriers), which gives exact ground-truth explanation
matrices: one-hot carrier rows spatially, a one-hot concept vector globally.

In memory a Dataset of N samples holds one array per field: features
(N, L, D) float64, labels (N,) int64, and the explanation targets h_spatial
(N, L, C) and h_global (N, 1, C) float64, each present for every sample or
for none. A batch is a gather of rows, features[idx].

EMB1 layout (little-endian): magic "CCTE", u32 version=1, u32 N, u32 L,
u32 D, u32 C (0 when no explanations), u8 flags (bit0 spatial H, bit1
global H); then per sample: L*D float32 row-major features, u32 label,
optional L*C float32 spatial H, optional C float32 global H. Values are
float32 on disk and widened to float64 in memory.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

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

    def __post_init__(self):
        if len(self.concepts_per_class) != self.n_classes:
            raise ConfigError("concepts_per_class must list one concept subset per class")
        if any(len(subset) == 0 for subset in self.concepts_per_class):
            raise ConfigError("every class needs at least one concept")
        covered = {c for subset in self.concepts_per_class for c in subset}
        if covered != set(range(self.n_concepts)):
            raise ConfigError("class concept subsets must cover all concepts exactly")
        if self.n_inputs < 1:
            raise ConfigError(f"n_inputs must be >= 1, got {self.n_inputs}")
        if not 0.0 < self.carrier_fraction <= 1.0:
            raise ConfigError(f"carrier_fraction must be in (0, 1], got {self.carrier_fraction}")
        if self.input_dim < self.n_concepts:
            raise ConfigError(f"orthogonal prototypes need input_dim >= n_concepts "
                              f"({self.input_dim} < {self.n_concepts})")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ConfigError(f"noise_std must be >= 0 and finite, got {self.noise_std}")
        if self.samples_per_class < 1:
            raise ConfigError(f"samples_per_class must be >= 1, got {self.samples_per_class}")

    @property
    def n_carriers(self) -> int:
        return int(np.ceil(self.carrier_fraction * self.n_inputs))


@dataclass(frozen=True)
class Sample:
    """One read-only row of a Dataset's columns (see Dataset.samples)."""

    features: np.ndarray                # (L, D)
    label: int
    h_spatial: np.ndarray | None = None  # (L, C)
    h_global: np.ndarray | None = None   # (1, C)


def _kind(x) -> str:
    """An array's dtype and shape, or another object's type, for an error text."""
    return f"{x.dtype} of shape {x.shape}" if isinstance(x, np.ndarray) else type(x).__name__


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples as the columns the module docstring lays out, with
    C = n_concepts. Any other column is refused with a ConfigError naming it."""

    features: np.ndarray
    labels: np.ndarray
    h_spatial: np.ndarray | None = None
    h_global: np.ndarray | None = None
    n_classes: int = 0
    n_concepts: int = 0

    def __post_init__(self):
        features = self.features
        if not (isinstance(features, np.ndarray) and features.dtype == np.float64
                and features.ndim == 3):
            raise ConfigError(f"features must be float64 of shape (N, L, D), got {_kind(features)}")
        n, rows = features.shape[:2]
        for name, dtype, want in (("labels", np.int64, (n,)),
                                  ("h_spatial", np.float64, (n, rows, self.n_concepts)),
                                  ("h_global", np.float64, (n, 1, self.n_concepts))):
            column = getattr(self, name)
            if column is None and name != "labels":
                continue
            if not (isinstance(column, np.ndarray) and column.dtype == dtype
                    and column.shape == want):
                raise ConfigError(f"{name} must be {dtype.__name__} of shape {want}, "
                                  f"got {_kind(column)}")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.features.shape[1]

    @property
    def input_dim(self) -> int:
        return self.features.shape[2]

    @property
    def samples(self) -> list[Sample]:
        """The rows as frozen Samples over read-only views of the columns.
        Nothing in this package reads it; it serves callers that walk samples."""
        def rows(column):
            if column is None:
                return [None] * len(self)
            view = column.view()
            view.flags.writeable = False
            return view

        return [Sample(*row) for row in zip(rows(self.features), self.labels.tolist(),
                                            rows(self.h_spatial), rows(self.h_global))]


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
    """(C, D) orthonormal prototype rows: standard-normal draws, Gram-Schmidt
    orthogonalized in row order (so D >= C)."""
    protos = rng.normal(size=(cfg.n_concepts, cfg.input_dim))
    for i in range(cfg.n_concepts):
        for j in range(i):
            protos[i] -= (protos[i] @ protos[j]) * protos[j]
        protos[i] /= np.linalg.norm(protos[i])
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
    n = cfg.n_classes * cfg.samples_per_class
    features = np.empty((n, cfg.n_inputs, cfg.input_dim))
    h_spatial = np.empty((n, cfg.n_inputs, cfg.n_concepts))
    h_global = np.empty((n, 1, cfg.n_concepts))
    labels = np.repeat(np.arange(cfg.n_classes), cfg.samples_per_class)
    for i, cls in enumerate(labels.tolist()):  # the draws of one sample, in sample order
        subset = cfg.concepts_per_class[cls]
        concept = int(subset[rng.integers(len(subset))])
        carriers = np.sort(rng.permutation(cfg.n_inputs)[:cfg.n_carriers])
        features[i] = cfg.noise_std * rng.standard_normal((cfg.n_inputs, cfg.input_dim))
        features[i, carriers] += protos[concept]
        h_spatial[i], h_global[i] = build_explanations(
            carriers, concept, cfg.n_inputs, cfg.n_concepts)
    return Dataset(features, labels, h_spatial, h_global, n_classes=cfg.n_classes,
                   n_concepts=cfg.n_concepts)


def write_emb(dataset: Dataset, path: str) -> None:
    """Serialize a dataset to EMB1 bytes at path."""
    with open(path, "wb") as fh:
        fh.write(emb_bytes(dataset))


def _record(n_inputs: int, input_dim: int, n_concepts: int, has_spatial: bool,
            has_global: bool) -> list:
    """The fields of one EMB1 sample record, named as the Dataset columns."""
    fields = [("features", "<f4", (n_inputs, input_dim)), ("labels", "<u4")]
    if has_spatial:
        fields.append(("h_spatial", "<f4", (n_inputs, n_concepts)))
    if has_global:
        fields.append(("h_global", "<f4", (1, n_concepts)))
    return fields


def emb_bytes(dataset: Dataset) -> bytes:
    n = len(dataset)
    # an empty dataset is written without explanation targets
    has_spatial = n > 0 and dataset.h_spatial is not None
    has_global = n > 0 and dataset.h_global is not None
    n_concepts = dataset.n_concepts if (has_spatial or has_global) else 0
    flags = (1 if has_spatial else 0) | (2 if has_global else 0)
    dims = (n, dataset.n_inputs, dataset.input_dim, n_concepts)
    if any(not 0 <= v <= _U32_MAX for v in dims):
        raise FormatError(f"dimension overflow: {dims}")
    bad = np.flatnonzero((dataset.labels < 0) | (dataset.labels > _U32_MAX))
    if bad.size:
        i = int(bad[0])
        raise FormatError(f"sample {i} label {int(dataset.labels[i])!r} is not an integer "
                          f"in [0, 2**32)")
    records = np.empty(n, _record(*dims[1:], has_spatial, has_global))
    for name in records.dtype.names:
        records[name] = getattr(dataset, name).astype(records.dtype[name].base)
    return struct.pack("<4sIIIIIB", EMB_MAGIC, EMB_VERSION, *dims, flags) + records.tobytes()


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
    try:
        record = np.dtype(_record(n_inputs, input_dim, n_concepts, has_spatial, has_global))
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
    # for all samples into its column.
    records = np.frombuffer(blob, record, count=n, offset=body)
    with np.errstate(invalid="ignore"):  # widening a signaling NaN; rejected below
        columns = {name: records[name].astype(np.float64) for name in record.names
                   if name != "labels"}
    bad = []  # (first sample holding NaN/Inf, field order, field) per field
    for k, (name, block) in enumerate(columns.items()):
        rows = np.flatnonzero(~np.isfinite(block).all(axis=(1, 2)))
        if rows.size:
            bad.append((int(rows[0]), k, name))
    if bad:
        i, _, name = min(bad)
        raise FormatError(f"sample {i} has non-finite {name} values",
                          offset=body + i * record.itemsize + record.fields[name][1])
    labels = records["labels"].astype(np.int64)
    return Dataset(labels=labels, n_classes=int(labels.max()) + 1 if n else 0,
                   n_concepts=n_concepts, **columns)
