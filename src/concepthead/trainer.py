"""Deterministic mini-batch training: AdamW with decoupled weight decay,
linear warmup, binary checkpoints, and per-epoch metric records.

Every source of randomness is owned here: parameter init and slot sampling
share one generator seeded from the config, and each epoch's shuffle is a
Fisher-Yates pass seeded with seed XOR epoch. Training runs each batch as
chunks of TRAIN_CHUNK (16) samples, one forward and one per-sample backward
walk per chunk; of the sizes tried (16, 32, 64) only 16 keeps peak memory
within about 5% of one-sample training. Gradients still add in sample-index
order, so the chunk size moves no bit, identical (dataset, config) pairs
reproduce metric logs bit for bit, and a checkpoint restores enough state
(parameters, optimizer moments, generator state, epoch) to continue a run
unchanged.
"""

from __future__ import annotations

import math
import struct
from collections import deque
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
    "train_epoch",
    "fit",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"CCTK"
CHECKPOINT_VERSION = 1

# Samples per training chunk. A chunk's whole record is live when its walk
# starts, so peak memory grows with the chunk. 16 keeps peak RSS within
# about 5% of one-sample training on the perfbench workloads; 32 adds about
# 11% and 64 about 30% on refine_dual and explain, past the benchmark's 10%
# bound.
TRAIN_CHUNK = 16


@dataclass(frozen=True)
class TrainConfig:
    head: HeadConfig
    epochs: int = 20
    batch_size: int = 64
    lr: float = 5e-5
    warmup_iters: int = 10
    weight_decay: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    eps_opt: float = 1e-8
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not math.isfinite(self.weight_decay):
            raise ConfigError(f"weight_decay must be finite, got {self.weight_decay}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not (math.isfinite(self.eps_opt) and self.eps_opt > 0):
            raise ConfigError(f"eps_opt must be positive and finite, got {self.eps_opt}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        b1, b2 = self.betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ConfigError(f"betas must lie in [0, 1), got {self.betas}")
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
    b1, b2 = cfg.betas
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
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps_opt)
        p.data -= lr_t * update
        if cfg.weight_decay != 0.0:
            p.data -= lr_t * cfg.weight_decay * p.data


def shuffled_indices(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) from a dedicated generator."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def init_train_state(cfg: TrainConfig) -> TrainState:
    rng = np.random.default_rng(cfg.seed)
    params = hd.init_head_params(cfg.head, rng)
    return TrainState(params=params, opt=OptimizerState.for_params(params), rng=rng)


def check_dataset(dataset: Dataset, head: HeadConfig, targets: bool = True) -> None:
    """Reject, before any forward pass, samples the model cannot take.

    Every sample must hold (L, D) features with one L for all samples and D
    equal to the model's input_dim. With targets, labels must be below
    n_classes, and every explanation target present must be (L, C) spatially
    or (1, C) globally with C equal to the model's concepts. The ConfigError
    names the first offending sample and both values.
    """
    if not dataset.samples:
        return
    shape = dataset.samples[0].features.shape
    for i, s in enumerate(dataset.samples):
        f = s.features
        if f.ndim != 2 or f.shape[1] != head.input_dim:
            raise ConfigError(f"sample {i} has features of shape {f.shape}, but the model "
                              f"has input_dim {head.input_dim}")
        if f.shape != shape:
            raise ConfigError(f"sample {i} has features of shape {f.shape}, "
                              f"but sample 0 has {shape}")
        if not targets:
            continue
        if not 0 <= s.label < head.n_classes:
            raise ConfigError(f"sample {i} has label {s.label}, "
                              f"but the model has {head.n_classes} classes")
        for name, h, rows in (("h_spatial", s.h_spatial, shape[0]), ("h_global", s.h_global, 1)):
            if h is not None and h.shape != (rows, head.concepts):
                raise ConfigError(f"sample {i} has {name} of shape {h.shape}, but the model "
                                  f"expects ({rows}, {head.concepts})")


def _chunks(samples: list, batch: np.ndarray, size: int) -> list[list[int]]:
    """Split a batch into runs of at most size indices, in batch order. A run
    also ends where the kinds of explanation target a sample carries change,
    so every sample of a chunk stacks the same targets."""
    chunks: list[list[int]] = []
    kinds = None
    for idx in batch.tolist():
        s = samples[idx]
        kind = (s.h_spatial is None, s.h_global is None)
        if not chunks or len(chunks[-1]) == size or kind != kinds:
            chunks.append([])
            kinds = kind
        chunks[-1].append(idx)
    return chunks


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _forward_losses(samples: list, params: HeadParams, cfg: TrainConfig,
                    rng: np.random.Generator):
    """One chunk through the head, and each sample's loss terms.

    Returns the head output, the (map, stacked targets) pairs that carry
    targets, and the per-sample cross-entropy, explanation (None without
    targets), sparsity and total losses. The sparsity term, the mean over
    maps of each map's entropy, is built whatever lambda_sparse is: it is
    also the entropy metric. total_loss leaves it out when lambda_sparse is 0.
    """
    w = cfg.weights
    out = hd.head_forward(Tensor(_stack([s.features for s in samples])), params, cfg.head, rng)
    pairs = [(a, _stack(targets)) for a, targets in (
        (out.attn_spatial, [s.h_spatial for s in samples]),
        (out.attn_global, [s.h_global for s in samples]))
        if a is not None and targets[0] is not None]
    cls = losses.cross_entropy(out.logits, [s.label for s in samples])
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

    Samples go forward as (B, L, D) chunks of a batch: TRAIN_CHUNK at a time
    when step is given, each chunk backpropagating its samples' shares of the
    batch-mean loss in one per-sample walk (step() runs after each batch),
    else cfg.batch_size at a time. Every op works per sample, and the walk
    adds each sample's gradient into the parameters in sample-index order,
    so chunking changes no value; the metric sums are Python floats added in
    sample order. Overflow stays silent: autodiff turns non-finite op
    outputs into NumericError. A chunk that raises one is replayed one
    sample at a time from the generator state it started with, so the error
    names the epoch, batch and sample.
    """
    check_dataset(dataset, cfg.head)
    size = TRAIN_CHUNK if step is not None else cfg.batch_size
    sum_cls = sum_expl = sum_entropy = sum_total = 0.0
    hits = 0
    concept_scores: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for b, batch in enumerate(batches):
            if step is not None:
                params.reset_grads()
            pending = deque(_chunks(dataset.samples, batch, size))
            while pending:
                chunk = pending.popleft()
                samples = [dataset.samples[i] for i in chunk]
                saved = rng.bit_generator.state if len(chunk) > 1 else None
                try:
                    out, pairs, cls, expl, sparse, total = _forward_losses(samples, params,
                                                                           cfg, rng)
                    if step is not None:
                        ad.backward(ad.scale(total, 1.0 / len(batch)), per_sample=True)
                except NumericError as err:
                    if saved is not None:
                        rng.bit_generator.state = saved
                        pending.extendleft([i] for i in reversed(chunk))
                        continue
                    raise NumericError(f"non-finite loss at epoch {epoch}, batch {b}, "
                                       f"sample {chunk[0]}: {err}") from err
                expl_v = [0.0] * len(chunk) if expl is None else expl.data.tolist()
                predicted = np.argmax(out.logits.data, axis=-1).tolist()
                chunk_scores = [concept_top1_scores(a.data, targets) for a, targets in pairs]
                for j, (s, cls_j, sparse_j, total_j) in enumerate(zip(
                        samples, cls.data.tolist(), sparse.data.tolist(), total.data.tolist())):
                    sum_cls += cls_j
                    sum_expl += expl_v[j]
                    sum_entropy += sparse_j
                    sum_total += total_j
                    if predicted[j] == s.label:
                        hits += 1
                    scores = [per_map[j] for per_map in chunk_scores if per_map[j] is not None]
                    if scores:
                        concept_scores.append(sum(scores) / len(scores))
            if step is not None:
                step()
    n = len(dataset.samples)
    return Metrics(epoch=epoch, loss_cls=sum_cls / n, loss_expl=sum_expl / n,
                   loss_sparse=sum_entropy / n, loss_total=sum_total / n,
                   class_acc=hits / n,
                   concept_top1_acc=(sum(concept_scores) / len(concept_scores)
                                     if concept_scores else float("nan")),
                   mean_entropy=sum_entropy / n)


def train_epoch(state: TrainState, dataset: Dataset, cfg: TrainConfig) -> Metrics:
    """One pass over the shuffled dataset; returns the epoch's mean metrics."""
    n = len(dataset.samples)
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
    if len(dataset.samples) == 0:
        raise ConfigError("cannot evaluate an empty dataset")
    with ad.no_grad():
        return _run_pass(dataset, params, cfg, np.random.default_rng(seed),
                         [np.arange(len(dataset.samples))], 0)


# --- checkpoint format ------------------------------------------------------
#
# magic "CCTK" | u32 version | u32 n_params | entries | u32 n_opt | entries |
# u32 config_len | config utf-8 "key=value" lines.
# Tensor entry: u32 name_len | name | u32 rank | u32 dims... | f64 LE payload.


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    encoded = name.encode("utf-8")
    out = struct.pack("<I", len(encoded)) + encoded
    out += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    out += arr.astype("<f8").tobytes()
    return out


def _config_lines(cfg: TrainConfig, state: TrainState) -> str:
    h = cfg.head
    rng_state = state.rng.bit_generator.state
    items = [
        ("epoch", state.epoch), ("step", state.opt.t), ("seed", cfg.seed),
        ("epochs", cfg.epochs), ("batch_size", cfg.batch_size), ("lr", repr(cfg.lr)),
        ("warmup_iters", cfg.warmup_iters), ("weight_decay", repr(cfg.weight_decay)),
        ("beta1", repr(cfg.betas[0])), ("beta2", repr(cfg.betas[1])),
        ("eps_opt", repr(cfg.eps_opt)),
        ("lambda_expl", repr(cfg.weights.lambda_expl)),
        ("lambda_sparse", repr(cfg.weights.lambda_sparse)),
        ("concepts", h.concepts), ("slot_dim", h.slot_dim), ("input_dim", h.input_dim),
        ("n_inputs", h.n_inputs), ("n_classes", h.n_classes), ("iters", h.iters),
        ("variant", h.variant), ("heads", h.heads), ("pathway", h.pathway),
        ("identity_mode", int(h.identity_mode)),
        ("rng_algo", rng_state["bit_generator"]),
        ("rng_state", rng_state["state"]["state"]),
        ("rng_inc", rng_state["state"]["inc"]),
        ("rng_has_uint32", rng_state["has_uint32"]),
        ("rng_uinteger", rng_state["uinteger"]),
    ]
    return "".join(f"{k}={v}\n" for k, v in items)


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


def _take(tensors: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Remove and return checkpoint tensor `name`, which must have `shape` and
    hold only finite values."""
    if name not in tensors:
        raise FormatError(f"checkpoint is missing tensor {name!r}")
    arr = tensors.pop(name)
    if arr.shape != shape:
        raise FormatError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                          f"config expects {shape}")
    if not np.isfinite(arr).all():
        raise FormatError(f"checkpoint tensor {name!r} holds non-finite values")
    return arr


def _build_params(cfg: HeadConfig, tensors: dict[str, np.ndarray]) -> HeadParams:
    """The configured parameter tree with every tensor taken from the checkpoint."""
    params = hd.init_head_params(cfg, np.random.default_rng(0))
    remaining = dict(tensors)
    for name, t in params.named():
        t.data = _take(remaining, name, t.shape)
    if remaining:
        raise FormatError(f"checkpoint has unexpected tensors: {sorted(remaining)[:3]}")
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

    kv: dict[str, str] = {}
    for line in config_blob.splitlines():
        if line:
            key, _, text = line.partition("=")
            kv[key] = text

    def value(key: str, convert=int):
        try:
            return convert(kv[key])
        except KeyError as err:
            raise FormatError(f"checkpoint config is missing key {key!r}") from err
        except ValueError as err:
            raise FormatError(f"checkpoint config key {key!r} has malformed value "
                              f"{kv[key]!r}") from err

    head_cfg = HeadConfig(
        concepts=value("concepts"), slot_dim=value("slot_dim"),
        input_dim=value("input_dim"), n_inputs=value("n_inputs"),
        n_classes=value("n_classes"), iters=value("iters"),
        variant=value("variant", str), heads=value("heads"), pathway=value("pathway", str),
        identity_mode=bool(value("identity_mode")))
    cfg = TrainConfig(
        head=head_cfg, epochs=value("epochs"), batch_size=value("batch_size"),
        lr=value("lr", float), warmup_iters=value("warmup_iters"),
        weight_decay=value("weight_decay", float),
        betas=(value("beta1", float), value("beta2", float)),
        eps_opt=value("eps_opt", float), seed=value("seed"),
        weights=LossWeights(lambda_expl=value("lambda_expl", float),
                            lambda_sparse=value("lambda_sparse", float)))
    rng = np.random.default_rng(0)
    algo, expected = value("rng_algo", str), rng.bit_generator.state["bit_generator"]
    if algo != expected:
        raise FormatError(f"checkpoint config key 'rng_algo' is {algo!r}, expected {expected!r}")
    has_uint32, uinteger = value("rng_has_uint32"), value("rng_uinteger")
    if has_uint32 not in (0, 1):
        raise FormatError(f"checkpoint config key 'rng_has_uint32' is {has_uint32}, "
                          "expected 0 or 1")
    if not 0 <= uinteger < 2 ** 32:
        raise FormatError(f"checkpoint config key 'rng_uinteger' is {uinteger}, "
                          "expected a value in [0, 2**32)")
    try:
        rng.bit_generator.state = {
            "bit_generator": algo,
            "state": {"state": value("rng_state"), "inc": value("rng_inc")},
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
    except (OverflowError, ValueError) as err:
        raise FormatError(f"checkpoint generator state is out of range: {err}") from err

    params = _build_params(head_cfg, tensors)
    named = list(params.named())
    opt = OptimizerState(m={name: _take(opt_entries, "m:" + name, p.shape) for name, p in named},
                         v={name: _take(opt_entries, "v:" + name, p.shape) for name, p in named},
                         t=value("step"))
    return TrainState(params=params, opt=opt, rng=rng, epoch=value("epoch")), cfg
