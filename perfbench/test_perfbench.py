"""Tests of the benchmark itself: tracer arithmetic, patch hygiene, count repeatability."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from tracer import Tracer, by_root, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {name: replace(w, n_train=96, n_heldout=6, n_explain=2, min_class_acc=None)
        for name, w in WORKLOADS.items()}


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # root [0, 10] has children [1, 4] and [3, 6] that overlap, and [8, 12]
    # that outlives it; [1, 4] has one child [2, 3].
    parent = np.array([-1, 0, 0, 0, 1])
    start = np.array([0.0, 1.0, 3.0, 8.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 12.0, 3.0])
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 3.0, 4.0, 1.0])


def test_by_root_groups_calls_under_their_top_level_span():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: None, "leaf")
    for phase, calls in (("a", 2), ("b", 3)):
        with tracer.span(phase):
            for _ in range(calls):
                leaf()
    table = by_root(tracer)
    assert table["a"]["leaf"][0] == 2 and table["b"]["leaf"][0] == 3
    calls, total, own = table["a"]["a"]
    assert calls == 1 and 0.0 <= own <= total


def traced_run(name: str, tmp_path: Path):
    tmp_path.mkdir(exist_ok=True)
    run = harness.Run(TINY[name], seed=3, workdir=tmp_path)
    values, _ = run.per_layer(0.0, tmp_path / "spans.npz")
    assert run.failures == []
    return values


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_restores_every_wrapped_attribute(name, tmp_path):
    before = [dict(vars(module)) for module in harness.LAYERS]
    values = traced_run(name, tmp_path)
    assert values["autodiff.nodes_per_sample"] > 0
    for module, saved in zip(harness.LAYERS, before):
        changed = [attr for attr, obj in saved.items() if getattr(module, attr) is not obj]
        assert changed == [], f"{module.__name__} still wraps {changed}"


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = traced_run(name, tmp_path / "a")
    second = traced_run(name, tmp_path / "b")
    for metric in ("autodiff.nodes_per_sample", "autodiff.backward_calls_per_step"):
        assert first[metric] == second[metric], metric


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    run = harness.Run(TINY[name], seed=3, workdir=tmp_path)
    values, _ = run.end_to_end(0.0)
    assert run.failures == []
    assert sorted(values) == sorted(harness.END_TO_END_UNITS)
    assert all(value > 0 for value in values.values())


def test_benchmark_json_matches_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
