"""Benchmark entry point, run from the root of a checkout:

    python3 perfbench/run.py --workload recovery --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, drives concepthead from `src/`
and prints one line per metric, a provenance line, and last a JSON object
with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics; `--trace 1` reports the per-layer ones from a traced run.
Scratch files, result records and span dumps go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# The head's matrices are at most 32x32, which OpenBLAS runs on one thread
# anyway; one thread also keeps an idle BLAS pool off the second core.
BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> bool:
    """Import concepthead from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import concepthead
    except ImportError as err:
        print(f"perfbench: cannot import concepthead from {src}: {err}", file=sys.stderr)
        return False
    if src.resolve() not in Path(concepthead.__file__).resolve().parents:
        print(f"perfbench: concepthead was imported from {concepthead.__file__}, "
              f"not from {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before NumPy is first imported
    if not import_program():
        return 2

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / stem
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = harness.Run(workload, args.seed, workdir)
        if args.trace:
            values, raw = run.per_layer(args.seconds, out_dir / f"{workload.name}-spans.npz")
            units = harness.PER_LAYER_UNITS
        else:
            values, raw = run.end_to_end(args.seconds)
            units = harness.END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"provenance": harness.provenance(ROOT, workload, args.seed),
              "error_rate": failed / run.attempted, "failures": run.failures,
              "raw": raw, **result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.6g} {unit}")
    print(f"{'error_rate':40s} {failed / run.attempted:14.6g} failed/attempted")
    for failure in run.failures[:10]:
        print(f"FAILED: {failure}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
