"""Golden-grid hash: 18 small CLI runs whose output bytes must not change.

    python3 tools/golden_grid.py ROOT [--expect HEX]

imports concepthead from ROOT/src (a checkout, or an unpacked copy of one)
and drives its CLI in this process. It writes one EMB1 file (gen-data
--seed 3 --samples-per-class 12 --features 6 --feature-dim 16
--carrier-fraction 0.5), then for every variant sa/isa/boqsa x pathway
spatial/global/dual x heads 1/4 runs `train` (2 epochs, batch 16, lr 1e-2,
slot-dim 16, seed 5), `eval` and `explain --limit 5` on it. All 18 explain
runs share one --out directory, so every run after the first rewrites the 11
files of the run before it: one-row global maps over six-row spatial and dual
maps, and the reverse. The grid thus checks that an existing output file
ends up holding exactly the bytes a fresh one would.

A run's sha256 covers, in this order: metrics.csv, model.cctk, the eval
stdout, then each explain output in name order as its name's bytes followed
by its bytes. The total is the sha256 over the runs' raw digests, in grid
order. One line per run and one for the total are printed. A change that
keeps every output byte prints the same lines as its parent on the same
machine; BLAS kernels differ between CPUs, so compare on one machine only.
With --expect HEX the exit status is 1, and both totals are printed, when
the total differs from HEX.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

VARIANTS = ("sa", "isa", "boqsa")
PATHWAYS = ("spatial", "global", "dual")
HEADS = (1, 4)


def run_cli(cli, argv: list[str]) -> bytes:
    """Run one command in this process; return its stdout, fail on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"golden_grid: {' '.join(argv[:1])} exited with {rc}")
    return out.getvalue().encode("utf-8")


def run_digest(cli, data: Path, work: Path, explain_dir: Path, variant: str, pathway: str,
               heads: int) -> bytes:
    train_dir = work / "train"
    ckpt = train_dir / "model.cctk"
    run_cli(cli, ["train", "--data", str(data), "--out", str(train_dir), "--epochs", "2",
                  "--batch-size", "16", "--lr", "1e-2", "--slot-dim", "16", "--seed", "5",
                  "--variant", variant, "--pathway", pathway, "--heads", str(heads)])
    eval_out = run_cli(cli, ["eval", "--data", str(data), "--checkpoint", str(ckpt)])
    run_cli(cli, ["explain", "--data", str(data), "--checkpoint", str(ckpt),
                  "--out", str(explain_dir), "--limit", "5"])
    digest = hashlib.sha256()
    digest.update((train_dir / "metrics.csv").read_bytes())
    digest.update(ckpt.read_bytes())
    digest.update(eval_out)
    for path in sorted(explain_dir.iterdir(), key=lambda p: p.name):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.digest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="golden_grid.py")
    parser.add_argument("root", help="checkout whose src/ holds concepthead")
    parser.add_argument("--expect", metavar="HEX", help="total the run must reproduce")
    args = parser.parse_args(argv)
    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    from concepthead import cli

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="golden-grid-") as tmp:
        data = Path(tmp) / "grid.emb"
        run_cli(cli, ["gen-data", "--out", str(data), "--seed", "3", "--samples-per-class", "12",
                      "--features", "6", "--feature-dim", "16", "--carrier-fraction", "0.5"])
        for i, (variant, pathway, heads) in enumerate(itertools.product(VARIANTS, PATHWAYS, HEADS)):
            run = run_digest(cli, data, Path(tmp) / f"run{i:02d}", Path(tmp) / "explain",
                             variant, pathway, heads)
            total.update(run)
            print(f"{variant:5s} {pathway:7s} heads={heads} {run.hex()}")
    print(f"total {total.hexdigest()}")
    if args.expect is not None and total.hexdigest() != args.expect.lower():
        print(f"golden_grid: total {total.hexdigest()} differs from the expected "
              f"{args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
