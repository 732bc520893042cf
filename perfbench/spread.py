"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py --workloads recovery explain --seeds 1 2 3 4 5

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for each metric its median and the distance between the first and
third quartile of its values as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{name}={series[-1]:.6g}" for name, series in values.items()),
                  flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median if median else float("nan")
            print(f"{workload:12s} {name:40s} median {median:12.6g} "
                  f"spread {share:7.4f}  min {min(series):.6g} max {max(series):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
