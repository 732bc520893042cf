"""Paired benchmark runs of two checkouts, alternating which side runs first.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds 6 7 8 \
        [--seconds 30] [--label NAME] [--out DIR] [--trace-seconds 10]

PARENT and CHANGE are checkouts (or unpacked copies) of the repository. For
each seed this runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` in both, one after the other: the parent first in
pairs 1, 3, 5, ..., the change first in pairs 2, 4, 6, ... It prints, for
every end-to-end metric that PARENT/BENCHMARK.json declares, the median and
quartiles of each side, the median gap over the parent's interquartile
range, how many pairs the change won, and a no-regression verdict against
the metric's `bound` (see `verdict`). It then prints each side's failed
checks over its attempted ones, summed over its runs, and flags the change
when it fails a larger share (see `failed_share_worse`), and each side's
median minor page faults and system CPU seconds per run, taken from
getrusage(RUSAGE_CHILDREN) around each run (see `usage_line`). A run that
exits nonzero is reported with its side, seed, exit code and last stderr
lines as it happens; its pair is left out of every median and record, the
summary lists each side's seeds whose runs exited nonzero, and the tool
exits 1 once it has printed and written the rest. With
--trace-seconds, TRACED_RUNS traced runs per side (`--trace 1`, on the
first seeds, cycling when fewer are given, paired and alternating as above)
add each per-layer value's median and quartiles, the ratio of the medians
and the median of the per-pair ratios: a single traced run's layer times
move by 15-30% with no code change, and the machine's speed drifts between
pairs, which only the per-pair ratio cancels.

The records go to --out (default: the current directory) as
BENCH_baseline.json (PARENT) and BENCH_<label>.json (CHANGE), in the schema
of the BENCH_*.json files at the repository root; a workload already in a
file is replaced, other workloads are kept. Both records hold the harness
digest of each side (see `harness_digests`), and a warning is printed when
the two differ: then the sides were not measured with the same harness.
Only the standard library is used, and nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

MACHINE_KEYS = ("nproc", "usable_cpus", "python", "numpy", "blas", "blas_threads",
                "ref_iter_s")
# the run's own cost to the OS: minor page faults and system CPU seconds
USAGE_KEYS = ("minor_faults", "sys_s")
# a flat run's entries besides metrics
RUN_KEYS = ("seed", "correct", "attempted", "failed", *USAGE_KEYS)
TRACED_RUNS = 3
# stderr lines printed for a run that exits nonzero
STDERR_LINES = 10


class RunFailed(Exception):
    """A perfbench run that exited nonzero: its exit code and stderr."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(returncode, stderr)
        self.returncode, self.stderr = returncode, stderr


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace-seconds", type=float, default=0.0,
                        help=f"seconds of each of {TRACED_RUNS} traced runs per side; "
                             "0 skips per-layer values")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path, default=Path("."))
    return parser.parse_args(argv)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict, dict]:
    """One perfbench run: its printed result, the provenance of its record,
    and its minor page faults and system CPU seconds (USAGE_KEYS). Raises
    RunFailed when the run exits nonzero."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"minor_faults": after.ru_minflt - before.ru_minflt,
             "sys_s": after.ru_stime - before.ru_stime}
    if done.returncode != 0:
        raise RunFailed(done.returncode, done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record.read_text())["provenance"], usage


def harness_digests(sides: dict[str, Path]) -> tuple[dict[str, str], str | None]:
    """Each side's sha256 over its BENCHMARK.json and perfbench/*.py, in name
    order, and a warning line when the sides' digests differ."""
    digests = {}
    for side, checkout in sides.items():
        h = hashlib.sha256()
        for path in [checkout / "BENCHMARK.json", *sorted((checkout / "perfbench").glob("*.py"))]:
            h.update(path.relative_to(checkout).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
        digests[side] = h.hexdigest()
    if len(set(digests.values())) == 1:
        return digests, None
    return digests, ("warning: the harness (BENCHMARK.json, perfbench/*.py) differs: "
                     + ", ".join(f"{side} {d[:12]}" for side, d in digests.items())
                     + "; the sides are not measured alike")


def flat_run(seed: int, result: dict, usage: dict) -> dict:
    row = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], **usage}
    row.update({name: m["value"] for name, m in result["metrics"].items()})
    return row


def paired_runs(sides: dict[str, Path], workload: str, seeds: list[int], seconds: float,
                trace: int) -> tuple[dict[str, list[dict]], dict[str, dict], dict[str, list[int]]]:
    """One run per side and seed, the parent first on even pairs: each side's
    flat runs of the pairs whose two runs both exited 0, the provenance of
    each side's last record, and each side's seeds whose run exited nonzero."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    provenance: dict[str, dict] = {}
    exited: dict[str, list[int]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            label = f"pair {i + 1} seed {seed} {side}{' traced' if trace else ''}"
            try:
                result, provenance[side], usage = run_bench(sides[side], workload, seed,
                                                            seconds, trace)
            except RunFailed as err:
                exited[side].append(seed)
                tail = err.stderr.splitlines()[-STDERR_LINES:]
                print(f"{label}: exited with {err.returncode}; the pair is left out; "
                      f"last stderr lines:", *(f"  {line}" for line in tail),
                      sep="\n", file=sys.stderr, flush=True)
                continue
            pair[side] = flat_run(seed, result, usage)
            print(f"{label}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        if len(pair) == 2:
            for side in runs:
                runs[side].append(pair[side])
    return runs, provenance, exited


def summarize(runs: list[dict], names: list[str]) -> dict:
    return {name: quartiles([r[name] for r in runs]) for name in names}


def metric_names(runs: list[dict]) -> list[str]:
    return [name for name in runs[0] if name not in RUN_KEYS]


def per_layer_lines(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per per-layer value: each side's median [q1, q3], the ratio
    of the medians, and the median over pairs of the change's value over the
    parent's in that pair (parent[i] and change[i] are pair i). Machine
    drift between pairs moves the first ratio but not the second. A ratio
    is n/a where the parent's median, or every pair's parent value, is 0."""
    names = metric_names(parent)
    qp, qc = summarize(parent, names), summarize(change, names)
    lines = []
    for name in names:
        p, c = qp[name], qc[name]
        ratio = f"x{c['median'] / p['median']:.3f}" if p["median"] else "n/a"
        pairs = [b[name] / a[name] for a, b in zip(parent, change) if a[name]]
        paired = f"x{statistics.median(pairs):.3f}" if pairs else "n/a"
        lines.append(f"  {name:36s} {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
                     f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  {ratio}"
                     f"  per pair {paired}")
    return lines


def usage_line(parent: list[dict], change: list[dict]) -> str:
    """Each side's median minor page faults and system CPU seconds per run."""
    p, c = summarize(parent, list(USAGE_KEYS)), summarize(change, list(USAGE_KEYS))
    return (f"  per run, median: minor faults {p['minor_faults']['median']:.0f} -> "
            f"{c['minor_faults']['median']:.0f}, system s {p['sys_s']['median']:.3f} -> "
            f"{c['sys_s']['median']:.3f}")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """No-regression verdict for one end-to-end metric: ok, worse or unresolved.

    worse: the change's median is worse than the parent's median by more
    than `bound`, a fraction of the parent's median. unresolved: otherwise,
    the parent's interquartile range is wider than `bound` times its median,
    so its runs spread too widely to tell, unless every change run beats
    every parent run. ok: neither.
    """
    qp, c = quartiles(parent), quartiles(change)["median"]
    p = qp["median"]
    if better == "higher":
        worse, beats_all = c < p * (1.0 - bound), min(change) > max(parent)
    else:
        worse, beats_all = c > p * (1.0 + bound), max(change) < min(parent)
    if worse:
        return "worse"
    if qp["q3"] - qp["q1"] > bound * abs(p) and not beats_all:
        return "unresolved"
    return "ok"


def failed_share_worse(parent: list[dict], change: list[dict]) -> tuple[str, str, bool]:
    """Each side's summed `failed`/`attempted` over its runs, and whether the
    change fails a larger share of what it attempted. A side that attempted
    nothing counts as a share of 0."""
    shares, texts = [], []
    for runs in (parent, change):
        failed, attempted = (sum(r[key] for r in runs) for key in ("failed", "attempted"))
        shares.append(failed / attempted if attempted else 0.0)
        texts.append(f"{failed}/{attempted}")
    return texts[0], texts[1], shares[1] > shares[0]


def write_record(path: Path, label: str, checkout: Path, workload: str, runs: list[dict],
                 metrics: list[str], provenance: dict, traced: list[dict] | None,
                 seconds: float, trace_seconds: float, harness: dict[str, str]) -> None:
    record = json.loads(path.read_text()) if path.exists() else {}
    entry = {"runs": runs, "summary": summarize(runs, metrics),
             "usage": summarize(runs, list(USAGE_KEYS))}
    if traced:
        entry["per_layer"] = {"runs": traced, "summary": summarize(traced, metric_names(traced))}
    workloads = record.get("workloads", {})
    workloads[workload] = entry
    command = (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
               + (f" (per-layer: {TRACED_RUNS} runs of --seconds {trace_seconds:g} --trace 1)"
                  if trace_seconds else ""))
    record.update({
        "label": label,
        "commit": provenance.get("git_commit") or f"checkout {checkout.name}",
        "command": command,
        "summary": "median [q1, q3] over the seeds listed; values as perfbench prints them "
                   "(times scaled by its yardstick)",
        "workloads": workloads,
        "machine": {key: provenance.get(key) for key in MACHINE_KEYS},
        "src_sha256": provenance.get("src_sha256"),
        "harness_sha256": harness,
    })
    path.write_text(json.dumps(record, indent=1) + "\n")


def print_exited(exited: dict[str, list[int]]) -> None:
    for side, seeds in exited.items():
        if seeds:
            print(f"  {side}: seeds {seeds} exited nonzero; their pairs are left out")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((sides["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    bounds = {m["name"]: m["bound"] for m in declared}
    harness, warning = harness_digests(sides)
    if warning:
        print(warning, flush=True)
    runs, provenance, exited = paired_runs(sides, args.workload, args.seeds, args.seconds, 0)
    traced = {"parent": None, "change": None}
    if args.trace_seconds:
        seeds = [args.seeds[i % len(args.seeds)] for i in range(TRACED_RUNS)]
        traced, _, traced_exited = paired_runs(sides, args.workload, seeds,
                                               args.trace_seconds, 1)
        for side, failed in traced_exited.items():
            exited[side] += [seed for seed in failed if seed not in exited[side]]
    if not runs["parent"]:
        print(f"{args.workload}: no pair completed")
        print_exited(exited)
        return 1

    print(f"{args.workload}: {len(runs['parent'])} pairs, {args.seconds:g} s runs; "
          f"median [q1, q3], parent -> change")
    for name, direction in better.items():
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        qp, qc = quartiles(p), quartiles(c)
        wins = sum((b > a) if direction == "higher" else (b < a) for a, b in zip(p, c))
        iqr = qp["q3"] - qp["q1"]
        gap = qc["median"] - qp["median"]
        print(f"  {name:12s} {qp['median']:.6g} [{qp['q1']:.6g}, {qp['q3']:.6g}] -> "
              f"{qc['median']:.6g} [{qc['q1']:.6g}, {qc['q3']:.6g}]  "
              f"x{qc['median'] / qp['median']:.3f}  change won {wins}/{len(p)}  "
              f"gap {gap:+.4g} vs parent IQR {iqr:.4g} ({better[name]} is better)  "
              f"{verdict(p, c, direction, bounds[name])} (bound {bounds[name]:g})")
    parent_failed, change_failed, worse = failed_share_worse(runs["parent"], runs["change"])
    print(f"  failed checks {parent_failed} -> {change_failed}  "
          f"{'worse: the change fails a larger share' if worse else 'ok'}")
    print(usage_line(runs["parent"], runs["change"]))
    for side in sides:
        bad = [r["seed"] for r in runs[side] if not r["correct"] or r["failed"]]
        if bad:
            print(f"  {side}: seeds {bad} had failed checks")
    print_exited(exited)
    if traced["parent"]:
        print(f"  per layer, median [q1, q3] over {len(traced['parent'])} traced "
              f"{args.trace_seconds:g} s runs, parent -> change")
        print("\n".join(per_layer_lines(traced["parent"], traced["change"])))

    args.out.mkdir(parents=True, exist_ok=True)
    for side, label in (("parent", "baseline"), ("change", args.label)):
        write_record(args.out / f"BENCH_{label}.json", label, sides[side], args.workload,
                     runs[side], list(better), provenance[side], traced[side],
                     args.seconds, args.trace_seconds, harness)
    return 1 if any(exited.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
