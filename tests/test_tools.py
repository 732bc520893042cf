import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_grid_expect_gates_the_total(capsys):
    grid = load_tool("golden_grid")
    assert grid.main([str(ROOT), "--expect", "0" * 64]) == 1
    captured = capsys.readouterr()
    total = captured.out.splitlines()[-1].removeprefix("total ")
    assert len(total) == 64 and total != "0" * 64
    assert total in captured.err and "0" * 64 in captured.err
    assert grid.main([str(ROOT), "--expect", total]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"total {total}"


TIGHT = [99.0, 100.0, 100.0, 101.0, 100.0]  # IQR 0, median 100


@pytest.mark.parametrize("parent,change,better,want", [
    (TIGHT, [100.0, 101.0, 99.0, 100.0, 100.0], "higher", "ok"),
    (TIGHT, [90.0, 91.0, 89.0, 90.0, 90.0], "higher", "ok"),            # -10% within 0.15
    (TIGHT, [80.0, 81.0, 79.0, 80.0, 80.0], "higher", "worse"),         # -20%
    (TIGHT, [120.0, 121.0, 119.0, 120.0, 120.0], "lower", "worse"),     # +20% of a time
    (TIGHT, [110.0, 111.0, 109.0, 110.0, 110.0], "lower", "ok"),        # +10% of a time
    (TIGHT, [80.0, 81.0, 79.0, 80.0, 80.0], "lower", "ok"),             # a lower time is better
    # parent IQR 40 > 0.15 * median 100: too wide to tell
    ([60.0, 80.0, 100.0, 120.0, 140.0], [95.0, 100.0, 105.0, 110.0, 99.0], "higher",
     "unresolved"),
    # the same wide parent, but every change run beats every parent run
    ([60.0, 80.0, 100.0, 120.0, 140.0], [141.0, 150.0, 160.0, 145.0, 155.0], "higher", "ok"),
    ([60.0, 80.0, 100.0, 120.0, 140.0], [50.0, 55.0, 45.0, 58.0, 52.0], "lower", "ok"),
    # worse outranks a wide parent
    ([60.0, 80.0, 100.0, 120.0, 140.0], [50.0, 55.0, 45.0, 58.0, 52.0], "higher", "worse"),
])
def test_bench_pairs_verdict(parent, change, better, want):
    assert load_tool("bench_pairs").verdict(parent, change, better, 0.15) == want


def runs(*pairs):
    return [{"failed": failed, "attempted": attempted} for failed, attempted in pairs]


@pytest.mark.parametrize("parent,change,want", [
    (runs((0, 100), (0, 120)), runs((0, 90), (0, 130)), ("0/220", "0/220", False)),
    (runs((0, 100), (0, 100)), runs((1, 100), (0, 100)), ("0/200", "1/200", True)),
    (runs((2, 100)), runs((2, 100), (0, 100)), ("2/100", "2/200", False)),   # 1% < 2%
    (runs((1, 100)), runs((3, 200)), ("1/100", "3/200", True)),              # 1.5% > 1%
    (runs((0, 0)), runs((0, 0)), ("0/0", "0/0", False)),
    (runs((0, 0)), runs((1, 5)), ("0/0", "1/5", True)),
])
def test_bench_pairs_failed_share(parent, change, want):
    assert load_tool("bench_pairs").failed_share_worse(parent, change) == want


def test_bench_pairs_per_layer_medians():
    def runs(*values):
        return [{"seed": 1, "correct": True, "attempted": 3, "failed": 0,
                 "autodiff.backward_us_per_sample": v, "trace.overhead_pct": 0.0}
                for v in values]

    per_layer_lines = load_tool("bench_pairs").per_layer_lines
    lines = per_layer_lines(runs(30.0, 10.0, 20.0), runs(5.0, 15.0, 10.0))
    assert len(lines) == 2  # one per value, none for the run's own entries
    # pair ratios 1/6, 1.5 and 0.5
    assert lines[0].split() == ["autodiff.backward_us_per_sample", "20", "[15,", "25]", "->",
                                "10", "[7.5,", "12.5]", "x0.500", "per", "pair", "x0.500"]
    # a parent median of 0 has no ratio, and no pair a parent value of 0 has one
    assert lines[1].split()[-4:] == ["n/a", "per", "pair", "n/a"]
    # the machine's speed drifts tenfold between pairs: the change reads 0.9 of
    # the parent within two pairs, and the odd pair moves only the medians' ratio
    lines = per_layer_lines(runs(10.0, 100.0, 20.0), runs(9.0, 90.0, 40.0))
    assert lines[0].split()[-4:] == ["x2.000", "per", "pair", "x0.900"]
    # pairs whose parent value is 0 are left out of the per-pair median
    lines = per_layer_lines(runs(0.0, 0.0, 10.0, 20.0), runs(5.0, 5.0, 11.0, 18.0))
    assert lines[0].split()[-4:] == ["x1.600", "per", "pair", "x1.000"]


def test_bench_pairs_harness_digests(tmp_path):
    bench = load_tool("bench_pairs")
    sides = {}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text('{"run_seconds": 30}\n')
        (tmp_path / side / "perfbench" / "run.py").write_text("print(1)\n")
        sides[side] = tmp_path / side
    digests, warning = bench.harness_digests(sides)
    assert warning is None and digests["parent"] == digests["change"]
    (tmp_path / "change" / "perfbench" / "PREDICTIONS.md").write_text("not hashed\n")
    assert bench.harness_digests(sides) == (digests, None)
    (tmp_path / "change" / "perfbench" / "run.py").write_text("print(2)\n")
    changed, warning = bench.harness_digests(sides)
    assert changed["parent"] == digests["parent"] != changed["change"]
    assert warning.count("\n") == 0 and warning.startswith("warning: the harness")
    assert changed["parent"][:12] in warning and changed["change"][:12] in warning


FAKE_RUN = '''import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
out = pathlib.Path(".perfbench_out")
out.mkdir(exist_ok=True)
name = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
(out / name).write_text(json.dumps({"provenance": {"git_commit": "abc"}}))
blocks = [bytearray(1 << 20) for _ in range(8)]  # touch a few hundred pages
print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"train_sps": {"value": 5.0}}}))
'''


def test_bench_pairs_records_faults_and_system_time(tmp_path):
    bench = load_tool("bench_pairs")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    result, provenance, usage = bench.run_bench(tmp_path, "w", 3, 1.0, 0)
    assert provenance == {"git_commit": "abc"}
    assert sorted(usage) == sorted(bench.USAGE_KEYS)
    assert usage["minor_faults"] > 0 and usage["sys_s"] >= 0.0
    row = bench.flat_run(3, result, usage)
    assert row["minor_faults"] == usage["minor_faults"] and row["train_sps"] == 5.0
    assert bench.metric_names([row]) == ["train_sps"]  # usage is not a metric

    def runs(*pairs):
        return [{"minor_faults": f, "sys_s": s} for f, s in pairs]

    line = bench.usage_line(runs((100, 0.5), (300, 0.1), (200, 0.3)), runs((50, 0.2)))
    assert line.split() == ["per", "run,", "median:", "minor", "faults", "200", "->", "50,",
                            "system", "s", "0.300", "->", "0.200"]


def test_bench_pairs_leaves_out_a_pair_whose_run_exits_nonzero(tmp_path, capsys):
    bench = load_tool("bench_pairs")
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "train_sps", "better": "higher", "bound": 0.15}]}))
        run = FAKE_RUN
        if side == "parent":  # seed 2 fails after a few lines of stderr
            run = ("import sys\n"
                   "if '2' in sys.argv:\n"
                   "    sys.stderr.write(''.join(f'line {i}\\n' for i in range(30)))\n"
                   "    sys.exit(3)\n" + FAKE_RUN)
        (tmp_path / side / "perfbench" / "run.py").write_text(run)
    out = tmp_path / "records"
    code = bench.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                       "--seeds", "1", "2", "3", "--seconds", "1", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    report = captured.err.splitlines()
    failed = report.index("pair 2 seed 2 parent: exited with 3; the pair is left out; "
                          "last stderr lines:")
    assert report[failed + 1:failed + 1 + bench.STDERR_LINES] == [
        f"  line {i}" for i in range(30 - bench.STDERR_LINES, 30)]
    assert "w: 2 pairs, 1 s runs; median [q1, q3], parent -> change" in captured.out
    assert "  parent: seeds [2] exited nonzero; their pairs are left out" in captured.out
    assert "change: seeds" not in captured.out
    for label in ("baseline", "change"):
        record = json.loads((out / f"BENCH_{label}.json").read_text())
        assert [r["seed"] for r in record["workloads"]["w"]["runs"]] == [1, 3]


def test_f17_sweep_reports_first_mismatch(f17_sweep, capsys, monkeypatch):
    from concepthead import metrics

    assert f17_sweep.main(["--values", "3000"]) == 0
    checked, rest = capsys.readouterr().out.split(" ", 1)
    assert rest == "values match %.17g\n" and int(checked) > 3000 + 160000
    kernel = metrics._f17_csv

    def broken(maps):  # 0.5 gets one trailing zero too many
        return [b"0.50\n" if text == b"0.5\n" else text for text in kernel(maps)]

    monkeypatch.setattr(metrics, "_f17_csv", broken)
    assert f17_sweep.main(["--values", "10"]) == 1
    assert capsys.readouterr().out == (
        "mismatch at 0.5 (0x1.0000000000000p-1): kernel b'0.50\\n', %.17g b'0.5\\n'\n")
