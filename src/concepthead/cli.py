"""Command-line entry point: gen-data | train | eval | explain."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import autodiff as ad
from . import data as dat
from . import head as hd
from . import metrics as mt
from . import trainer as tr
from .autodiff import Tensor
from .errors import ConceptHeadError, ConfigError
from .losses import LossWeights

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concepthead",
        description="Train and inspect a concept-attention classifier head.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic planted-concept EMB1 file")
    gen.add_argument("--out", required=True, help="output EMB1 path")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--prototype-seed", type=int, default=None,
                     help="seed the concept prototypes separately from the samples")
    gen.add_argument("--classes", type=int, default=4)
    gen.add_argument("--concepts", type=int, default=12)
    gen.add_argument("--features", type=int, default=8, help="feature rows per sample (L)")
    gen.add_argument("--feature-dim", type=int, default=32, help="feature dimension (D)")
    gen.add_argument("--noise-std", type=float, default=0.3)
    gen.add_argument("--samples-per-class", type=int, default=500)
    gen.add_argument("--carrier-fraction", type=float, default=1.0)

    def add_head_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--concepts", type=int, default=None,
                       help="concept count; defaults to the dataset's")
        p.add_argument("--slot-dim", type=int, default=64)
        p.add_argument("--iters", type=int, default=None,
                       help="refinement iterations; defaults per variant")
        p.add_argument("--variant", choices=hd.VARIANTS, default="boqsa")
        p.add_argument("--heads", type=int, default=1)
        p.add_argument("--pathway", choices=hd.PATHWAYS, default="spatial")

    train = sub.add_parser("train", help="fit the head on an EMB1 dataset")
    train.add_argument("--data", required=True, help="EMB1 training set")
    train.add_argument("--out", default=".", help="directory for metrics.csv and checkpoint")
    train.add_argument("--checkpoint", default=None, help="checkpoint path override")
    train.add_argument("--epochs", type=int, default=tr.TrainConfig.epochs)
    train.add_argument("--batch-size", type=int, default=tr.TrainConfig.batch_size)
    train.add_argument("--lr", type=float, default=tr.TrainConfig.lr)
    train.add_argument("--warmup", type=int, default=tr.TrainConfig.warmup_iters)
    train.add_argument("--weight-decay", type=float, default=tr.TrainConfig.weight_decay)
    train.add_argument("--lambda-expl", type=float, default=LossWeights.lambda_expl)
    train.add_argument("--lambda-sparse", type=float, default=LossWeights.lambda_sparse)
    add_head_flags(train)

    ev = sub.add_parser("eval", help="print metrics for a checkpoint on a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--seed", type=int, default=0)

    ex = sub.add_parser("explain", help="export per-sample heatmaps and top-k concepts")
    ex.add_argument("--data", required=True)
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--out", default=".", help="directory for heatmaps and topk.csv")
    ex.add_argument("--topk", type=int, default=3)
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--limit", type=int, default=None, help="explain only the first N samples")
    return parser


class _UsageError(ConceptHeadError):
    """A usage error found after parsing; main exits 2 on it, as argparse does."""


def _load_dataset(path: str) -> dat.Dataset:
    if not os.path.exists(path):
        raise ConceptHeadError(f"dataset file not found: {path}")
    dataset = dat.read_emb(path)
    if len(dataset) == 0:
        raise _UsageError(f"dataset is empty: {path}")
    return dataset


def _head_config(args, dataset: dat.Dataset) -> hd.HeadConfig:
    concepts = args.concepts
    if concepts is None:
        if dataset.n_concepts == 0:
            raise ConceptHeadError("dataset carries no explanations; pass --concepts")
        concepts = dataset.n_concepts
    return hd.HeadConfig(
        concepts=concepts, slot_dim=args.slot_dim, input_dim=dataset.input_dim,
        n_inputs=dataset.n_inputs, n_classes=dataset.n_classes, iters=args.iters,
        variant=args.variant, heads=args.heads, pathway=args.pathway)


def _cmd_gen_data(args) -> int:
    cfg = dat.SynthConfig(
        n_classes=args.classes, n_concepts=args.concepts,
        concepts_per_class=dat.block_concept_map(args.classes, args.concepts),
        n_inputs=args.features, input_dim=args.feature_dim, noise_std=args.noise_std,
        samples_per_class=args.samples_per_class, carrier_fraction=args.carrier_fraction)
    dataset = dat.gen_synthetic(cfg, args.seed, prototype_seed=args.prototype_seed)
    dat.write_emb(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    dataset = _load_dataset(args.data)
    cfg = tr.TrainConfig(
        head=_head_config(args, dataset), epochs=args.epochs, batch_size=args.batch_size,
        lr=args.lr, warmup_iters=args.warmup, weight_decay=args.weight_decay,
        seed=args.seed,
        weights=LossWeights(lambda_expl=args.lambda_expl, lambda_sparse=args.lambda_sparse))
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.csv")
    ckpt_path = args.checkpoint or os.path.join(args.out, "model.cctk")

    started = time.perf_counter()
    with open(metrics_path, "w", encoding="ascii") as fh:
        fh.write(mt.METRICS_HEADER + "\n")

        def on_epoch(record):
            fh.write(mt.format_metrics_row(record) + "\n")
            fh.flush()
            print(f"epoch {record.epoch}: total={record.loss_total:.6f} "
                  f"acc={record.class_acc:.4f}", file=sys.stderr)

        state, _ = tr.fit(dataset, cfg, on_epoch=on_epoch)
    tr.save_checkpoint(state, cfg, ckpt_path)
    print(f"training took {time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(f"wrote {metrics_path} and {ckpt_path}")
    return 0


def _cmd_eval(args) -> int:
    dataset = _load_dataset(args.data)
    state, cfg = tr.load_checkpoint(args.checkpoint)
    record = tr.evaluate(dataset, state.params, cfg, seed=args.seed)
    for f in dataclasses.fields(record)[1:]:  # every metric but the epoch
        print(f"{f.name}={getattr(record, f.name):.6f}")
    return 0


def _cmd_explain(args) -> int:
    """Write each sample's exported map as a heatmap and its top-k concepts
    by relevance to topk.csv, cfg.batch_size samples per forward.

    The exported map is the spatial one, or the global one when that is the
    only pathway (head.explanation_map): the slot noise of every pathway is
    drawn as in head_forward, so every map is head_forward's, but only the
    exported pathway's map is made, not its readback logits. Each chunk's
    ranked concepts and their relevances fill two (count, k) arrays, and
    write_topk_csv makes the whole topk.csv text from them at the end.
    """
    if args.topk < 1:
        raise ConceptHeadError(f"--topk must be >= 1, got {args.topk}")
    if args.limit is not None and args.limit < 0:
        raise ConceptHeadError(f"--limit must be >= 0, got {args.limit}")
    dataset = _load_dataset(args.data)
    state, cfg = tr.load_checkpoint(args.checkpoint)
    tr.check_dataset(dataset, cfg.head, targets=False)
    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    count = len(dataset) if args.limit is None else min(args.limit, len(dataset))
    k = min(args.topk, cfg.head.concepts)
    order = np.empty((count, k), dtype=np.intp)
    gamma = np.empty((count, k))
    for start in range(0, count, cfg.batch_size):
        stop = min(start + cfg.batch_size, count)
        with ad.no_grad():
            maps = hd.explanation_map(Tensor(dataset.features[start:stop]), state.params,
                                      cfg.head, rng)
            rel = hd.relevance(maps).data  # (B, C), the gamma of the faithfulness identity
        mt.export_heatmaps(maps.data, [os.path.join(args.out, f"sample_{i:04d}.pgm")
                                       for i in range(start, stop)])
        order[start:stop] = np.argsort(-rel, axis=-1, kind="stable")[:, :k]
        gamma[start:stop] = np.take_along_axis(rel, order[start:stop], axis=-1)
    mt.write_topk_csv(np.arange(count), order, gamma, os.path.join(args.out, "topk.csv"))
    print(f"wrote {count} heatmaps and topk.csv to {args.out}")
    return 0


def _check_seeds(args) -> None:
    """NumPy seeds must be non-negative; say which flag is not."""
    for flag in ("seed", "prototype_seed"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "explain": _cmd_explain,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser every main call reuses: parse_args fills a new
    namespace on each call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        _check_seeds(args)
        return _COMMANDS[args.command](args)
    except (ConceptHeadError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
