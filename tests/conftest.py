import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, the benchmark's workload table and input
    writer, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module
