"""Deterministic mini-batch training: AdamW with decoupled weight decay,
linear warmup, binary checkpoints, and per-epoch metric records.

Every source of randomness is owned here: parameter init and slot sampling
share one generator seeded from the config, and each epoch's shuffle is a
Fisher-Yates pass seeded with seed XOR epoch. Training runs each batch as
near-equal chunks, each a gather of dataset rows (features[chunk] and the
like) for one forward and one per-sample backward walk, each as large as
RECORD_BUDGET allows: a chunk's record is live in full when its walk starts,
and record_bytes_per_sample estimates its share per sample from the head
config. Gradients still add in sample-index order, so the chunk size moves
no bit, identical (dataset, config) pairs reproduce metric logs bit for bit,
and a checkpoint restores enough state (parameters, optimizer moments,
generator state, epoch) to continue a run unchanged.

The parameters and AdamW's two moments live in one flat store (see
OptimizerState): three contiguous float64 arrays laid out in named() order,
each parameter's Tensor.data a reshaped view into the first, so one AdamW
step is one pass of elementwise ops over the three arrays. Gradients stay
per tensor, in each leaf's .grad. The store's table is also the checkpoint's
one tensor layout: the writer walks it for every tensor entry, and the reader
takes the file's entries by position, in the table's order, and copies each
section into the store's arrays. Both check each store array for
non-finite values once, with the same text, so the writer makes no file
that the reader refuses. The reader reads each entry's header with two
struct reads and makes no array until the entries match the layout.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import struct
from collections import deque, namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import head as hd
from . import losses
from .autodiff import Tensor
from .data import Dataset
from .errors import ConfigError, FormatError, NumericError
from .head import HeadConfig, HeadParams
from .losses import LossWeights
from .metrics import Metrics, concept_top1_scores

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "TrainConfig",
    "OptimizerState",
    "TrainState",
    "adamw_step",
    "lr_at",
    "init_train_state",
    "check_dataset",
    "record_bytes_per_sample",
    "train_epoch",
    "fit",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"CCTK"
CHECKPOINT_VERSION = 1

# Bytes of record one training chunk may hold when its walk starts. Larger
# chunks spread the fixed per-call cost of every op and walk node over more
# samples, and peak memory grows with the record. On the perfbench workload
# shapes (batch 64) 8 MiB gives one 64-sample chunk per batch on recovery
# and refine_dual and 2 x 32 on explain (records of 49, 106 and 159 KiB per
# sample).
RECORD_BUDGET = 8 * 2 ** 20

# AdamW's moment decay rates and denominator epsilon, the usual fixed values
# (Loshchilov & Hutter, arXiv:1711.05101).
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    head: HeadConfig
    epochs: int = 20
    batch_size: int = 64
    lr: float = 5e-5
    warmup_iters: int = 10
    weight_decay: float = 1e-3
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not math.isfinite(self.weight_decay):
            raise ConfigError(f"weight_decay must be finite, got {self.weight_decay}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.warmup_iters < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1, warmup_iters >= 0")


@dataclass
class OptimizerState:
    """AdamW's state as one flat store, plus the step count.

    flat holds three contiguous float64 arrays of equal length: the
    parameters, the first moments and the second moments. table lists each
    parameter's (name, tensor, start, stop) in named() order; its values,
    first and second moments are flat[0], flat[1] and flat[2] at
    [start:stop], and its Tensor.data is a view of flat[0][start:stop]
    reshaped to its shape. The table is the checkpoint's tensor layout too:
    a checkpoint holds each array's entries in the table's order, and
    parse_checkpoint takes them by position into a new store. Build one over
    existing tensors with for_params.
    """

    table: tuple[tuple[str, Tensor, int, int], ...]
    flat: tuple[np.ndarray, np.ndarray, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: HeadParams, t: int = 0) -> "OptimizerState":
        """The store over params' tensors, their values copied in and each
        .data moved to its view, with zero moments."""
        table, size = [], 0
        for name, p in params.named():
            table.append((name, p, size, size + p.data.size))
            size += p.data.size
        flat = np.concatenate([p.data.ravel() for _, p, _, _ in table])
        for _, p, start, stop in table:
            p.data = flat[start:stop].reshape(p.shape)
        return cls(table=tuple(table), flat=(flat, np.zeros(size), np.zeros(size)), t=t)


def _first_nonfinite(table, values: np.ndarray) -> str | None:
    """The name of the first table entry (name, ..., stop) whose slice of
    values holds a non-finite value, or None when every value is finite."""
    if np.isfinite(values).all():
        return None
    first = np.flatnonzero(~np.isfinite(values))[0]
    return next(name for name, *_, stop in table if first < stop)


@dataclass
class TrainState:
    params: HeadParams
    opt: OptimizerState
    rng: np.random.Generator
    epoch: int = 0  # completed epochs


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Linear ramp over the first warmup_iters optimizer steps, then constant."""
    if cfg.warmup_iters > 0 and iteration < cfg.warmup_iters:
        return cfg.lr * (iteration + 1) / cfg.warmup_iters
    return cfg.lr


def adamw_step(opt: OptimizerState, cfg: TrainConfig, lr_t: float) -> None:
    """One AdamW update with decoupled weight decay over opt's flat store, so
    over the tensors its table lists; missing grads count as zero. A
    non-finite gradient raises before any value changes, naming the first
    parameter in named() order that holds one."""
    b1, b2 = ADAM_BETAS
    t = opt.t + 1
    g = np.concatenate([np.zeros(stop - start) if p.grad is None else p.grad.ravel()
                        for _, p, start, stop in opt.table])
    name = _first_nonfinite(opt.table, g)
    if name is not None:
        raise NumericError(f"non-finite gradient for parameter {name!r} "
                           f"at optimizer step {t}")
    opt.t = t
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    theta, m, v = opt.flat
    # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2;
    # theta -= lr_t (m / bc1) / (sqrt(v / bc2) + eps), then lr_t wd theta:
    # each op in that order, into two work arrays (g's once it is used)
    m *= b1
    work = np.multiply(1.0 - b1, g)
    m += work
    v *= b2
    np.multiply(g, g, out=work)
    work *= 1.0 - b2
    v += work
    np.divide(v, bc2, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    update = np.divide(m, bc1, out=g)
    update /= work
    update *= lr_t
    theta -= update
    if cfg.weight_decay != 0.0:
        theta -= np.multiply(lr_t * cfg.weight_decay, theta, out=update)


def shuffled_indices(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) from a dedicated generator.

    Position i = n-1, ..., 1 swaps with j drawn from [0, i]. All n-1 draws
    come from one integers() call, which gives the values of n-1 calls in
    that order.
    """
    idx = list(range(n))
    targets = np.random.default_rng(seed).integers(np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), targets):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=np.int64)


def init_train_state(cfg: TrainConfig) -> TrainState:
    rng = np.random.default_rng(cfg.seed)
    params = hd.init_head_params(cfg.head, rng)
    return TrainState(params=params, opt=OptimizerState.for_params(params), rng=rng)


def check_dataset(dataset: Dataset, head: HeadConfig, targets: bool = True) -> None:
    """Reject, before any forward pass, a dataset the model cannot take.

    Features must be (n_inputs, input_dim) per sample. With targets, labels
    must be below n_classes, and each target must be (n_inputs, C) spatially
    or (1, C) globally per sample with C equal to the model's concepts. The
    ConfigError names the first offending sample: sample 0 for a shape, which
    every sample shares.
    """
    want = (head.n_inputs, head.input_dim)
    if len(dataset) and dataset.features.shape[1:] != want:
        raise ConfigError(f"sample 0 has features of shape {dataset.features.shape[1:]}, "
                          f"but the model expects {want}")
    if not targets:
        return
    bad = np.flatnonzero((dataset.labels < 0) | (dataset.labels >= head.n_classes))
    first = int(bad[0]) if bad.size else len(dataset)
    # a sample's label is checked before its targets, so sample 0's targets
    # are named unless its own label is bad (or there is no sample)
    for name, h, rows in (("h_spatial", dataset.h_spatial, head.n_inputs),
                          ("h_global", dataset.h_global, 1)):
        if first > 0 and h is not None and h.shape[1:] != (rows, head.concepts):
            raise ConfigError(f"sample 0 has {name} of shape {h.shape[1:]}, but the model "
                              f"expects ({rows}, {head.concepts})")
    if bad.size:
        raise ConfigError(f"sample {first} has label {dataset.labels[first]}, "
                          f"but the model has {head.n_classes} classes")


def record_bytes_per_sample(head: HeadConfig) -> int:
    """Estimated bytes one sample adds to a training chunk's record when its
    walk starts: the float64 arrays its VJPs keep, plus the input, targets
    and outputs the pass holds. It counts, per pathway of `rows` input rows
    (L spatial, 1 global) and per recorded slot_step (one for isa, whose
    earlier steps run untaped), the arrays named below. Every variant's
    slots start from one (C, d) per-sample constant. The few Python objects
    of each node are per chunk, not per sample.
    """
    c, d, k, heads = head.concepts, head.slot_dim, head.n_classes, head.heads
    recorded = 1 if head.variant == "isa" else head.iters
    floats = k  # the exponentials cross-entropy keeps
    for name, rows in (("spatial", head.n_inputs), ("global", 1)):
        if head.pathway not in (name, "dual"):
            continue
        floats += (
            rows * (3 * head.input_dim + 1)  # input; layer norm: output, xhat, 1/std
            + c * d  # slot noise, boqsa's zeros or isa's untaped slots
            + 2 * rows * d  # the inputs' keys^T and values, made once per pathway
            # each step: normed slot rows and their 1/std; q, softmax, its row
            # sums and readout; z, r and the GRU candidate
            + recorded * (6 * c * d + 2 * c + c * rows)
            + 3 * c * d + 2 * rows * d + k  # refined slots; readback k^T, v, q, merged, logits
            + heads * rows * c + (heads > 1) * rows * c  # per-head maps, their mean
            + 4 * rows * c)  # explanation target and residual; entropy's clamp and log
    return 8 * floats


def _forward_losses(dataset: Dataset, chunk: np.ndarray, params: HeadParams,
                    cfg: TrainConfig, rng: np.random.Generator):
    """The dataset rows `chunk` through the head, and each sample's loss terms.

    Returns the head output, the (map, gathered targets) pairs that carry
    targets, and the per-sample cross-entropy, explanation (None without
    targets), sparsity and total losses. The sparsity term, the mean over
    maps of each map's entropy, is built whatever lambda_sparse is: it is
    also the entropy metric. total_loss leaves it out when lambda_sparse is 0.
    """
    w = cfg.weights
    out = hd.head_forward(Tensor(dataset.features[chunk]), params, cfg.head, rng)
    pairs = [(a, targets[chunk]) for a, targets in ((out.attn_spatial, dataset.h_spatial),
                                                    (out.attn_global, dataset.h_global))
             if a is not None and targets is not None]
    cls = losses.cross_entropy(out.logits, dataset.labels[chunk])
    expl = sparse = None
    if w.lambda_expl > 0.0:
        for attn, targets in pairs:
            term = losses.explanation_loss(attn, targets)
            expl = term if expl is None else ad.add(expl, term)
    maps = out.maps()
    for a in maps:
        term = losses.sparsity_loss(a)
        sparse = term if sparse is None else ad.add(sparse, term)
    if len(maps) > 1:
        sparse = ad.scale(sparse, 1.0 / len(maps))
    return out, pairs, cls, expl, sparse, losses.total_loss(cls, expl, sparse, w)


def _run_pass(dataset: Dataset, params: HeadParams, cfg: TrainConfig,
              rng: np.random.Generator, batches: list[np.ndarray], epoch: int,
              step=None) -> Metrics:
    """The one pass loop of train_epoch and evaluate.

    Samples go forward as chunks, near-equal plain slices of a batch in
    batch order, each a gather of the dataset's columns: (B, L, D) features,
    B labels and (B, rows, C) targets. When step is given, each holds at most
    RECORD_BUDGET // record_bytes_per_sample samples and backpropagates its
    samples' shares of the batch-mean loss in one per-sample walk (step()
    runs after each batch); otherwise each holds at most cfg.batch_size.
    Every op works per sample, and the walk adds each sample's gradient
    into the parameters in sample-index order, so chunking changes no value.
    Each chunk keeps one (6, B) array of its samples' losses, hits and
    concept scores. The metric sums run sequentially over the samples in pass
    order (np.add.accumulate): np.sum adds pairwise and Python's sum()
    compensates from 3.12 on, and either would move the last bits of the
    logged values with the chunking or the Python version. Overflow stays
    silent: a non-finite value raises the NumericError that names the first
    op that made it, though not every op output is checked (see the autodiff
    module docstring and head.slot_step). A chunk
    that raises one is replayed one sample at a time from the generator state
    it started with, so the error names the epoch, batch and sample.
    """
    check_dataset(dataset, cfg.head)
    largest = (max(1, RECORD_BUDGET // record_bytes_per_sample(cfg.head)) if step is not None
               else cfg.batch_size)
    values: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for b, batch in enumerate(batches):
            if step is not None:
                params.reset_grads()
            pending = deque(np.array_split(batch, -(-len(batch) // largest)))
            while pending:
                chunk = pending.popleft()
                saved = rng.bit_generator.state if len(chunk) > 1 else None
                try:
                    out, pairs, cls, expl, sparse, total = _forward_losses(dataset, chunk,
                                                                           params, cfg, rng)
                    if step is not None:
                        ad.backward(ad.scale(total, 1.0 / len(batch)), per_sample=True)
                except NumericError as err:
                    if saved is not None:
                        rng.bit_generator.state = saved
                        pending.extendleft([i] for i in reversed(chunk))
                        continue
                    raise NumericError(f"non-finite loss at epoch {epoch}, batch {b}, "
                                       f"sample {chunk[0]}: {err}") from err
                hits = np.argmax(out.logits.data, axis=-1) == dataset.labels[chunk]
                # (maps, B) scores; a sample's concept score is their mean over
                # the maps that score it, NaN (0 / 0) where none does
                scores = np.reshape([concept_top1_scores(a.data, targets)
                                     for a, targets in pairs], (len(pairs), len(chunk)))
                concept = np.nansum(scores, axis=0) / np.count_nonzero(~np.isnan(scores), axis=0)
                values.append(np.stack([cls.data, np.zeros(len(chunk)) if expl is None
                                        else expl.data, sparse.data, total.data, hits, concept]))
            if step is not None:
                step()
    table = np.concatenate(values, axis=1)  # (6, n) in pass order
    concept = table[5][~np.isnan(table[5])]
    # Sums from 0.0, as the Python float sums ran, so -0.0 terms sum to 0.0.
    mean_cls, mean_expl, mean_sparse, mean_total, class_acc = (
        (np.add.accumulate(table[:5], axis=1)[:, -1] + 0.0) / table.shape[1]).tolist()
    return Metrics(epoch=epoch, loss_cls=mean_cls, loss_expl=mean_expl,
                   loss_sparse=mean_sparse, loss_total=mean_total, class_acc=class_acc,
                   concept_top1_acc=(np.add.accumulate(concept)[-1].item() / concept.size
                                     if concept.size else float("nan")),
                   mean_entropy=mean_sparse)


def train_epoch(state: TrainState, dataset: Dataset, cfg: TrainConfig) -> Metrics:
    """One pass over the shuffled dataset; returns the epoch's mean metrics."""
    n = len(dataset)
    if n == 0:
        raise ConfigError("cannot train on an empty dataset")
    order = shuffled_indices(n, cfg.seed ^ state.epoch)
    batches = [order[start:start + cfg.batch_size] for start in range(0, n, cfg.batch_size)]
    record = _run_pass(dataset, state.params, cfg, state.rng, batches, state.epoch + 1,
                       step=lambda: adamw_step(state.opt, cfg, lr_at(state.opt.t, cfg)))
    state.epoch += 1
    return record


def fit(dataset: Dataset, cfg: TrainConfig, state: TrainState | None = None,
        epochs: int | None = None, on_epoch=None) -> tuple[TrainState, list[Metrics]]:
    """Train for the remaining epochs (or an explicit count) and collect metrics.

    Passing a state resumes it; on_epoch, when given, is called with each
    Metrics record as it is produced.
    """
    if state is None:
        state = init_train_state(cfg)
    if epochs is None:
        epochs = cfg.epochs - state.epoch
    records = []
    for _ in range(epochs):
        record = train_epoch(state, dataset, cfg)
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return state, records


def evaluate(dataset: Dataset, params: HeadParams, cfg: TrainConfig,
             seed: int = 0) -> Metrics:
    """Metrics over a dataset without updating parameters (slot sampling seeded).

    The pass runs under no_grad, so no operation record is built. The record
    reports epoch 0, as does a NumericError raised on the way.
    """
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate an empty dataset")
    with ad.no_grad():
        return _run_pass(dataset, params, cfg, np.random.default_rng(seed),
                         [np.arange(len(dataset))], 0)


# --- checkpoint format ------------------------------------------------------
#
# magic "CCTK" | u32 version | u32 n_params | entries | u32 n_opt | entries |
# u32 config_len | config utf-8 "key=value" lines.
# Tensor entry: u32 name_len | name | u32 rank | u32 dims... | f64 LE payload.
# The entries are the store's table (see OptimizerState), in its order: the
# parameters, then every "m:NAME" first moment, then every "v:NAME" second
# moment. A reader compares them by position with the table that the config's
# layout gives (init_head_params with rng None), names and then shapes, and
# copies each array's entries into the store.
# The config lines hold the keys of _CONFIG_KEYS, each once and in that order.
# A _Key gives the converter of its value and the path from _config_lines' roots
# to it; the writer writes convert(value), so an int in a float field is written
# as the float a reader gets back, and a value valid() rejects fails as "is V,
# expected <expected>".
# beta1, beta2, eps_opt and identity_mode have no path: they are fixed values
# kept for v1 files (ADAM_BETAS, ADAM_EPS, and 0, as no head skips its layer
# norms or projections), and a reader rejects any other text there.
_Key = namedtuple("_Key", "name convert path valid expected", defaults=(None, ""))


def _fields(cls, *parent: str) -> list[_Key]:
    """A key per field of a flat config dataclass, named as the field."""
    convert = {"int": int, "float": float, "str": str}
    return [_Key(f.name, convert[f.type.split()[0]], (*parent, f.name))
            for f in dataclasses.fields(cls)]


_CONFIG_KEYS = (
    _Key("epoch", int, ("state", "epoch"), lambda v: v >= 0, "a value >= 0"),
    _Key("step", int, ("state", "opt", "t"), lambda v: v >= 0, "a value >= 0"),
    *(_Key(name, convert, ("cfg", name)) for name, convert in (
        ("seed", int), ("epochs", int), ("batch_size", int), ("lr", float),
        ("warmup_iters", int), ("weight_decay", float))),
    _Key("beta1", str, None, expected=str(ADAM_BETAS[0])),
    _Key("beta2", str, None, expected=str(ADAM_BETAS[1])),
    _Key("eps_opt", str, None, expected=str(ADAM_EPS)),
    *_fields(LossWeights, "cfg", "weights"),
    *_fields(HeadConfig, "cfg", "head"),
    _Key("identity_mode", str, None, expected="0"),
    # the generator's bit_generator.state; np.random.default_rng gives PCG64
    _Key("rng_algo", str, ("rng", "bit_generator"), lambda v: v == "PCG64", "'PCG64'"),
    _Key("rng_state", int, ("rng", "state", "state")),
    _Key("rng_inc", int, ("rng", "state", "inc")),
    _Key("rng_has_uint32", int, ("rng", "has_uint32"), lambda v: v in (0, 1), "0 or 1"),
    _Key("rng_uinteger", int, ("rng", "uinteger"), lambda v: 0 <= v < 2 ** 32,
         "a value in [0, 2**32)"),
)


# the name prefix of each store array's entries: parameters, first and second moments
_PREFIXES = ("", "m:", "v:")


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    encoded = name.encode("utf-8")
    out = struct.pack("<I", len(encoded)) + encoded
    out += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    out += arr.astype("<f8").tobytes()
    return out


def _config_lines(cfg: TrainConfig, state: TrainState) -> str:
    roots = {"cfg": cfg, "state": state, "rng": state.rng.bit_generator.state}
    lines = []
    for key in _CONFIG_KEYS:
        value = roots if key.path is not None else key.expected
        for part in key.path or ():
            value = value[part] if isinstance(value, dict) else getattr(value, part)
        lines.append(f"{key.name}={key.convert(value)}\n")
    return "".join(lines)


def save_checkpoint(state: TrainState, cfg: TrainConfig, path: str) -> None:
    """Write checkpoint_bytes to path. The bytes are made before the file is
    opened, so a store that checkpoint_bytes refuses leaves path as it was."""
    blob = checkpoint_bytes(state, cfg)
    with open(path, "wb") as fh:
        fh.write(blob)


def checkpoint_bytes(state: TrainState, cfg: TrainConfig) -> bytes:
    """The checkpoint of state and cfg. A store array that holds a non-finite
    value raises the NumericError whose text parse_checkpoint would give for
    it, so no file a reader refuses is made."""
    table = state.opt.table
    _check_finite(table, state.opt.flat, NumericError)
    entries = [(prefix + name, values[start:stop].reshape(p.shape))
               for prefix, values in zip(_PREFIXES, state.opt.flat)
               for name, p, start, stop in table]
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    for section in (entries[:len(table)], entries[len(table):]):
        out += struct.pack("<I", len(section))
        for name, arr in section:
            out += _pack_tensor(name, arr)
    config = _config_lines(cfg, state).encode("utf-8")
    out += struct.pack("<I", len(config)) + config
    return bytes(out)


def _truncated(offset: int) -> FormatError:
    return FormatError("truncated checkpoint", offset=offset)


def _u32(blob: bytes, pos: int) -> int:
    if pos + 4 > len(blob):
        raise _truncated(pos)
    return struct.unpack_from("<I", blob, pos)[0]


def _utf8(blob: bytes, pos: int, size: int, what: str) -> str:
    if pos + size > len(blob):
        raise _truncated(pos)
    try:
        return blob[pos:pos + size].decode("utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"checkpoint {what} is not valid UTF-8",
                          offset=pos + err.start) from err


def _rank_error(name: str, rank: int, offset: int) -> FormatError:
    # every parameter and moment buffer is a matrix
    return FormatError(f"checkpoint tensor {name!r} has rank {rank}, expected 2", offset=offset)


def _cut_dims(blob: bytes, pos: int, name: str) -> FormatError:
    """The error of a rank-and-dims field that the blob's end cuts: a rank
    other than 2, when the rank is whole, is named before the cut."""
    if pos + 4 > len(blob):
        return _truncated(pos)
    rank = struct.unpack_from("<I", blob, pos)[0]
    return _rank_error(name, rank, pos) if rank != 2 else _truncated(pos + 4)


def _read_section(blob: bytes, pos: int) -> tuple[list[tuple[int, str, tuple[int, int], int]],
                                                  int]:
    """The tensor entries of the section at pos, each as its offset, name,
    shape and payload offset, and the offset after the section. Each header
    is two struct reads, its name length and then its rank and dims; a field
    that the blob's end cuts raises "truncated checkpoint" at its start."""
    end = len(blob)
    entries = []
    count = _u32(blob, pos)
    pos += 4
    for _ in range(count):
        start = pos
        if pos + 4 > end:
            raise _truncated(pos)
        size = struct.unpack_from("<I", blob, pos)[0]
        name = _utf8(blob, pos + 4, size, "tensor name")
        pos += 4 + size
        if pos + 12 > end:
            raise _cut_dims(blob, pos, name)
        rank, rows, cols = struct.unpack_from("<3I", blob, pos)
        if rank != 2:
            raise _rank_error(name, rank, pos)
        pos += 12
        if pos + 8 * rows * cols > end:
            raise _truncated(pos)
        entries.append((start, name, (rows, cols), pos))
        pos += 8 * rows * cols
    return entries, pos


def _check_order(what: str, found: list[str], expected: list[str], end: str,
                 offsets: list[int] | None = None) -> None:
    """Raise a FormatError at the first position where found and expected
    differ, either of them read as `end` past its last item. offsets, when
    given, holds each found item's byte offset and then the offset after it."""
    for at, (got, want) in enumerate(itertools.zip_longest(found, expected, fillvalue=end)):
        if got != want:
            raise FormatError(f"checkpoint {what} {at + 1}: found {got}, expected {want}",
                              offset=offsets and offsets[at])


def _check_finite(table, flat, error: type[Exception]) -> None:
    """Raise error for the first store array, and its first table entry, that
    holds a non-finite value, in the text a checkpoint reader gives."""
    for prefix, values in zip(_PREFIXES, flat):
        name = _first_nonfinite(table, values)
        if name is not None:
            raise error(f"checkpoint tensor '{prefix}{name}' holds non-finite values")


def load_checkpoint(path: str) -> tuple[TrainState, TrainConfig]:
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read())


def parse_checkpoint(blob: bytes) -> tuple[TrainState, TrainConfig]:
    """The state and config a checkpoint holds; a FormatError names what is
    malformed and, for a field of the file, its byte offset.

    The tensor headers are read first, the payloads only located. Then the
    config is read and the entries are compared, by position, with the
    tensor layout it gives, names and then shapes, before any array of its
    shapes is made. Each store array is then one copy of its entries'
    payloads, checked for finiteness once, and each parameter Tensor is a
    view of the first.
    """
    if len(blob) < 4:
        raise _truncated(0)
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}", offset=0)
    version = _u32(blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    # the parameters' and then the moments' entries, each with the offset after them
    param_entries, param_end = _read_section(blob, 8)
    moment_entries, moment_end = _read_section(blob, param_end)
    size = _u32(blob, moment_end)
    config_blob = _utf8(blob, moment_end + 4, size, "config block")
    if moment_end + 4 + size != len(blob):
        raise FormatError("trailing bytes after config block", offset=moment_end + 4 + size)

    # The first config line out of place, and a value that does not parse or
    # that its key does not allow, raise a FormatError naming the key.
    lines = [line.partition("=") for line in config_blob.splitlines()]
    if [key for key, _, _ in lines] != [key.name for key in _CONFIG_KEYS]:
        _check_order("config line", [f"key {key!r}" for key, _, _ in lines],
                     [f"key {key.name!r}" for key in _CONFIG_KEYS], "the end of the block")
    tree: dict = {}  # the values, nested along their keys' paths
    for key, (_, _, raw) in zip(_CONFIG_KEYS, lines):
        try:
            value = key.convert(raw)
        except ValueError as err:
            raise FormatError(f"checkpoint config key {key.name!r} has malformed value "
                              f"{raw!r}") from err
        fixed = key.path is None
        if (fixed and value != key.expected) or (key.valid and not key.valid(value)):
            raise FormatError(f"checkpoint config key {key.name!r} is {value!r}, "
                              f"expected {key.expected}")
        if not fixed:
            *parents, leaf = key.path
            node = functools.reduce(lambda d, part: d.setdefault(part, {}), parents, tree)
            node[leaf] = value
    settings = tree["cfg"]
    head_cfg = HeadConfig(**settings.pop("head"))
    cfg = TrainConfig(head=head_cfg, weights=LossWeights(**settings.pop("weights")), **settings)
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = tree["rng"]
    except (OverflowError, ValueError) as err:
        raise FormatError(f"checkpoint generator state is out of range: {err}") from err

    # The entries against the config's layout, by position, before any array
    # of its shapes is made; then one copy of each array's entries into the
    # store, and one finite check per array.
    params = hd.init_head_params(head_cfg, None)
    spans, size = [], 0  # the store's table, with each tensor's shape in its place
    for name, shape in params.named():
        spans.append((name, shape, size, size + math.prod(shape)))
        size += math.prod(shape)
    n = len(spans)
    layout = [(prefix + name, shape) for prefix in _PREFIXES for name, shape, _, _ in spans]
    for what, entries, end, want in (("parameter", param_entries, param_end, layout[:n]),
                                     ("moment", moment_entries, moment_end, layout[n:])):
        if [name for _, name, _, _ in entries] != [name for name, _ in want]:
            _check_order(f"{what} entry", [f"tensor {name!r}" for _, name, _, _ in entries],
                         [f"tensor {name!r}" for name, _ in want], "the end of the section",
                         [at for at, _, _, _ in entries] + [end])
        if [shape for _, _, shape, _ in entries] != [shape for _, shape in want]:
            for (at, name, shape, _), (_, expected) in zip(entries, want):
                if shape != expected:
                    raise FormatError(f"checkpoint tensor {name!r} has shape {shape}, "
                                      f"config expects {expected}", offset=at)
    payloads = [at for _, _, _, at in param_entries + moment_entries]
    flat = tuple(np.concatenate([np.frombuffer(blob, "<f8", stop - start, at)
                                 for at, (_, _, start, stop) in zip(payloads[k * n:], spans)],
                                dtype=np.float64)
                 for k in range(3))
    _check_finite(spans, flat, FormatError)
    # the views are finite: flat[0] was checked as a whole
    table = [(name, Tensor(flat[0][start:stop].reshape(shape), requires_grad=True,
                           finite=True), start, stop)
             for name, shape, start, stop in spans]
    params.fill({name: p for name, p, _, _ in table}.__getitem__)
    opt = OptimizerState(table=tuple(table), flat=flat, t=tree["state"]["opt"]["t"])
    return TrainState(params=params, opt=opt, rng=rng, epoch=tree["state"]["epoch"]), cfg
