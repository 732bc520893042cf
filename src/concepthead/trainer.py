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
from .data import ByteReader, Dataset
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
# shapes (batch 64) 6 MiB gives one 64-sample chunk per batch on recovery
# and 2 x 32 on refine_dual and explain (records of 49, 106 and 159 KiB per
# sample).
RECORD_BUDGET = 6 * 2 ** 20

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
    """First/second moment buffers keyed by parameter name, plus the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: HeadParams) -> "OptimizerState":
        return cls(m={name: np.zeros_like(p.data) for name, p in params.named()},
                   v={name: np.zeros_like(p.data) for name, p in params.named()})


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


def adamw_step(params: HeadParams, opt: OptimizerState, cfg: TrainConfig,
               lr_t: float) -> None:
    """One AdamW update with decoupled weight decay; missing grads count as zero."""
    b1, b2 = ADAM_BETAS
    opt.t += 1
    bc1 = 1.0 - b1 ** opt.t
    bc2 = 1.0 - b2 ** opt.t
    for name, p in params.named():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r} "
                               f"at optimizer step {opt.t}")
        m = opt.m[name]
        v = opt.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data -= lr_t * update
        if cfg.weight_decay != 0.0:
            p.data -= lr_t * cfg.weight_decay * p.data


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
    silent: autodiff turns non-finite op outputs into NumericError. A chunk
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
                       step=lambda: adamw_step(state.params, state.opt, cfg,
                                               lr_at(state.opt.t, cfg)))
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
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(state, cfg))


def checkpoint_bytes(state: TrainState, cfg: TrainConfig) -> bytes:
    named = list(state.params.named())
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(named))
    for name, p in named:
        out += _pack_tensor(name, p.data)
    opt_entries = ([("m:" + name, state.opt.m[name]) for name, _ in named]
                   + [("v:" + name, state.opt.v[name]) for name, _ in named])
    out += struct.pack("<I", len(opt_entries))
    for name, arr in opt_entries:
        out += _pack_tensor(name, arr)
    config = _config_lines(cfg, state).encode("utf-8")
    out += struct.pack("<I", len(config)) + config
    return bytes(out)


def _utf8(r: ByteReader, size: int, what: str) -> str:
    start = r.offset
    try:
        return r.take(size).decode("utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"checkpoint {what} is not valid UTF-8",
                          offset=start + err.start) from err


def _read_tensor(r: ByteReader) -> tuple[str, np.ndarray]:
    name = _utf8(r, r.u32(), "tensor name")
    rank = r.u32()
    if rank != 2:  # every parameter and moment buffer is a matrix
        raise FormatError(f"checkpoint tensor {name!r} has rank {rank}, expected 2",
                          offset=r.offset - 4)
    dims = struct.unpack("<2I", r.take(8))
    return name, r.array(dims, "<f8")


def _take(tensors: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]
          ) -> dict[str, np.ndarray]:
    """Exactly the checkpoint tensors that shapes names, each of its shape and
    holding only finite values; a tensor shapes does not name is rejected."""
    for name, shape in shapes.items():
        if name not in tensors:
            raise FormatError(f"checkpoint is missing tensor {name!r}")
        arr = tensors[name]
        if arr.shape != shape:
            raise FormatError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                              f"config expects {shape}")
        if not np.isfinite(arr).all():
            raise FormatError(f"checkpoint tensor {name!r} holds non-finite values")
    extra = sorted(tensors.keys() - shapes.keys())
    if extra:
        raise FormatError(f"checkpoint has unexpected tensors: {extra[:3]}")
    return {name: tensors[name] for name in shapes}


def _build_params(cfg: HeadConfig, tensors: dict[str, np.ndarray]) -> HeadParams:
    """The configured parameter tree with every tensor taken from the
    checkpoint; no parameter is drawn."""
    params = hd.init_head_params(cfg, None)
    taken = _take(tensors, {name: t.shape for name, t in params.named()})
    for name, t in params.named():
        t.data = taken[name]
    return params


def load_checkpoint(path: str) -> tuple[TrainState, TrainConfig]:
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read())


def parse_checkpoint(blob: bytes) -> tuple[TrainState, TrainConfig]:
    cur = ByteReader(blob, "checkpoint")
    magic = cur.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    version = cur.u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    tensors = dict(_read_tensor(cur) for _ in range(cur.u32()))
    opt_entries = dict(_read_tensor(cur) for _ in range(cur.u32()))
    config_blob = _utf8(cur, cur.u32(), "config block")
    if cur.offset != len(blob):
        raise FormatError("trailing bytes after config block", offset=cur.offset)

    # The first config line out of place, and a value that does not parse or
    # that its key does not allow, raise a FormatError naming the key.
    lines = [line.partition("=") for line in config_blob.splitlines()]
    pairs = itertools.zip_longest([key for key, _, _ in lines], [key.name for key in _CONFIG_KEYS])
    for at, pair in enumerate(pairs):
        if pair[0] != pair[1]:
            got, want = ("the end of the block" if key is None else f"key {key!r}" for key in pair)
            raise FormatError(f"checkpoint config line {at + 1}: found {got}, expected {want}")
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

    params = _build_params(head_cfg, tensors)
    shapes = {name: p.shape for name, p in params.named()}
    moments = _take(opt_entries, {f"{kind}:{name}": shape for kind in "mv"
                                  for name, shape in shapes.items()})
    opt = OptimizerState(m={name: moments["m:" + name] for name in shapes},
                         v={name: moments["v:" + name] for name in shapes},
                         t=tree["state"]["opt"]["t"])
    return TrainState(params=params, opt=opt, rng=rng, epoch=tree["state"]["epoch"]), cfg
