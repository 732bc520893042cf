import importlib.util
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

    lines = load_tool("bench_pairs").per_layer_lines(runs(30.0, 10.0, 20.0),
                                                     runs(5.0, 15.0, 10.0))
    assert len(lines) == 2  # one per value, none for the run's own entries
    assert lines[0].split() == ["autodiff.backward_us_per_sample", "20", "[15,", "25]", "->",
                                "10", "[7.5,", "12.5]", "x0.500"]
    assert lines[1].split()[-1] == "n/a"  # a parent median of 0 has no ratio
