import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_golden_grid():
    spec = importlib.util.spec_from_file_location("golden_grid", ROOT / "tools" / "golden_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_grid_expect_gates_the_total(capsys):
    grid = load_golden_grid()
    assert grid.main([str(ROOT), "--expect", "0" * 64]) == 1
    captured = capsys.readouterr()
    total = captured.out.splitlines()[-1].removeprefix("total ")
    assert len(total) == 64 and total != "0" * 64
    assert total in captured.err and "0" * 64 in captured.err
    assert grid.main([str(ROOT), "--expect", total]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"total {total}"
