"""Deterministic mini-batch training: AdamW with decoupled weight decay,
linear warmup, binary checkpoints, and per-epoch metric records.

Every source of randomness is owned here: parameter init and slot sampling
share one generator seeded from the config, and each epoch's shuffle is a
Fisher-Yates pass seeded with seed XOR epoch. Gradients accumulate in
sample-index order, so identical (dataset, config) pairs reproduce metric
logs bit for bit, and a checkpoint restores enough state (parameters,
optimizer moments, generator state, epoch) to continue a run unchanged.
"""

from __future__ import annotations

import struct
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
from .metrics import Metrics, _sample_concept_score, attention_entropy

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "TrainConfig",
    "OptimizerState",
    "TrainState",
    "adamw_step",
    "lr_at",
    "init_train_state",
    "train_epoch",
    "fit",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"CCTK"
CHECKPOINT_VERSION = 1


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
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
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


def _run_pass(dataset: Dataset, params: HeadParams, cfg: TrainConfig,
              rng: np.random.Generator, batches: list[np.ndarray], epoch: int,
              step=None) -> Metrics:
    """Per-sample loop shared by train_epoch and evaluate.

    Each sample goes forward once and feeds the metric sums; with step given,
    its share of the batch-mean loss is backpropagated and step() runs after
    each batch. Overflow stays silent: autodiff turns non-finite op outputs into
    NumericError, which is re-raised here with its location.
    """
    for i, sample in enumerate(dataset.samples):
        if not 0 <= sample.label < cfg.head.n_classes:
            raise ConfigError(f"sample {i} has label {sample.label}, "
                              f"but the model has {cfg.head.n_classes} classes")
    w = cfg.weights
    sum_cls = sum_expl = sum_entropy = sum_total = 0.0
    hits = 0
    concept_scores: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for b, batch in enumerate(batches):
            if step is not None:
                params.reset_grads()
            for idx in batch:
                sample = dataset.samples[int(idx)]
                try:
                    out = hd.head_forward(Tensor(sample.features), params, cfg.head, rng)
                    pairs = [(a, h) for a, h in ((out.attn_spatial, sample.h_spatial),
                                                 (out.attn_global, sample.h_global))
                             if a is not None and h is not None]
                    cls = losses.cross_entropy(out.logits, sample.label)
                    expl = sparse = None
                    if w.lambda_expl > 0.0:
                        for attn, target in pairs:
                            term = losses.explanation_loss(attn, target)
                            expl = term if expl is None else ad.add(expl, term)
                    maps = out.maps()
                    if w.lambda_sparse > 0.0:
                        for a in maps:
                            term = losses.sparsity_loss(a)
                            sparse = term if sparse is None else ad.add(sparse, term)
                        if len(maps) > 1:
                            sparse = ad.scale(sparse, 1.0 / len(maps))
                    total = losses.total_loss(cls, expl, sparse, w)
                    if step is not None:
                        ad.backward(ad.scale(total, 1.0 / len(batch)))
                except NumericError as err:
                    raise NumericError(f"non-finite loss at epoch {epoch}, batch {b}, "
                                       f"sample {int(idx)}: {err}") from err
                sum_cls += float(cls.data)
                sum_expl += 0.0 if expl is None else float(expl.data)
                sum_entropy += sum(attention_entropy(a.data) for a in maps) / len(maps)
                sum_total += float(total.data)
                if int(np.argmax(out.logits.data)) == sample.label:
                    hits += 1
                scores = [s for s in (_sample_concept_score(a.data, h) for a, h in pairs)
                          if s is not None]
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


def _read_tensor(r: ByteReader) -> tuple[str, np.ndarray]:
    name = r.take(r.u32()).decode("utf-8")
    rank = r.u32()
    dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
    return name, r.array(dims, "<f8")


def _build_params(cfg: HeadConfig, tensors: dict[str, np.ndarray]) -> HeadParams:
    """The configured parameter tree with every tensor taken from the checkpoint."""
    params = hd.init_head_params(cfg, np.random.default_rng(0))
    remaining = dict(tensors)
    for name, t in params.named():
        if name not in remaining:
            raise FormatError(f"checkpoint is missing tensor {name!r}")
        arr = remaining.pop(name)
        if arr.shape != t.shape:
            raise FormatError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                              f"config expects {t.shape}")
        t.data = Tensor(arr).data
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
    config_blob = cur.take(cur.u32()).decode("utf-8")
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
    rng.bit_generator.state = {
        "bit_generator": algo,
        "state": {"state": value("rng_state"), "inc": value("rng_inc")},
        "has_uint32": value("rng_has_uint32"),
        "uinteger": value("rng_uinteger"),
    }

    params = _build_params(head_cfg, tensors)
    opt = OptimizerState.for_params(params)
    for name in opt.m:
        if "m:" + name not in opt_entries or "v:" + name not in opt_entries:
            raise FormatError(f"checkpoint is missing optimizer buffers for {name!r}")
        opt.m[name] = opt_entries["m:" + name].copy()
        opt.v[name] = opt_entries["v:" + name].copy()
    opt.t = value("step")
    return TrainState(params=params, opt=opt, rng=rng, epoch=value("epoch")), cfg
