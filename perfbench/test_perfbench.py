"""Tiny-size self-test of the benchmark's workloads, tracer and checks.

Run with ``python -m pytest perfbench -q``.  Every workload runs at its
"tiny" scale, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.tracing import Tracer
from repro.algorithms.global_greedy import GlobalGreedy
from repro.core.entities import Triple

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


@pytest.fixture(autouse=True)
def _scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "PIN_PATH", tmp_path / "pinned.json")


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_run_is_correct_and_reports_every_end_to_end_metric(name):
    outcome = workloads.WORKLOADS[name].timed(seed=3, seconds=1,
                                              scale="tiny")
    assert outcome.correct, outcome.failures
    assert outcome.attempted >= 2 and outcome.failed == 0
    for metric in END_TO_END:
        assert outcome.metrics[metric] > 0.0, metric
    assert outcome.metrics["revenue"] == outcome.revenue


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    outcome = workloads.WORKLOADS[name].traced(seed=3, seconds=1,
                                               scale="tiny")
    assert outcome.correct, outcome.failures
    metrics = outcome.metrics
    assert set(PER_LAYER) <= set(metrics)
    assert metrics["selection.pops"] >= metrics["selection.admits"] > 0
    assert 0.0 < metrics["selection.admit_ratio"] <= 1.0
    assert metrics["revenue.batch_rows"] >= metrics["revenue.batch_calls"] > 0
    assert metrics["constraints.can_add_calls"] == metrics["selection.pops"]
    assert metrics["datasets.generate_s"] > 0.0
    assert metrics["dynamic.fallbacks"] == 0
    if name == "resolve-drift":
        assert metrics["io.save_npz_s"] > 0.0 < metrics["io.load_npz_s"]
        assert metrics["dynamic.resolve_s"] >= metrics["dynamic.simulate_s"]
        assert 0.0 < metrics["dynamic.reuse_ratio"] < 1.0
    else:
        assert metrics["dynamic.resolve_s"] == 0.0
    assert Path(outcome.details["trace_file"]).exists()


def test_same_seed_gives_the_same_digest_and_another_seed_does_not():
    workload = workloads.WORKLOADS["cold-free"]
    first = workload.timed(seed=5, seconds=1, scale="tiny")
    again = workload.timed(seed=5, seconds=1, scale="tiny")
    other = workload.timed(seed=6, seconds=1, scale="tiny")
    assert first.digest == again.digest and first.revenue == again.revenue
    assert other.digest != first.digest


def _tiny_solution():
    instance = workloads.build_synthetic(seed=4, scale="tiny")
    solver = GlobalGreedy()
    strategy = solver.build_strategy(instance)
    return instance, strategy, list(solver.last_growth_curve)


def test_checks_accept_a_solver_output():
    instance, strategy, curve = _tiny_solution()
    assert workloads.solution_failures(instance, strategy, curve) == []


def test_checks_reject_a_display_violation():
    instance, strategy, curve = _tiny_solution()
    shown = next(iter(strategy))
    compiled = instance.compiled()
    for row in range(int(compiled.user_ptr[shown.user]),
                     int(compiled.user_ptr[shown.user + 1])):
        extra = Triple(shown.user, int(compiled.pair_item[row]), shown.t)
        if extra not in strategy:
            strategy.add(extra)
    failures = workloads.solution_failures(instance, strategy, curve)
    assert any("infeasible" in failure for failure in failures)


def test_checks_reject_a_wrong_revenue_and_a_changed_sequence():
    instance, strategy, curve = _tiny_solution()
    size, revenue = curve[-1]
    wrong = curve[:-1] + [(size, revenue * 1.001)]
    assert any("revenue" in failure for failure in
               workloads.solution_failures(instance, strategy, wrong))
    assert workloads.admission_digest(strategy, wrong) != \
        workloads.admission_digest(strategy, curve)


def test_pins_are_checked_per_workload_seed_and_setting():
    full = workloads.pin_setting("full", 25)
    assert workloads.pin_failures("cold-free", 1, full, "abc", 1.0) == \
        (False, [])
    workloads.record_pin("cold-free", 1, full, "abc", 1.0)
    assert workloads.pin_failures("cold-free", 1, full, "abc", 1.0) == \
        (True, [])
    assert workloads.pin_failures("cold-free", 1, "tiny-1s", "xyz", 1.0) == \
        (False, [])
    pinned, failures = workloads.pin_failures("cold-free", 1, full, "xyz",
                                              2.0)
    assert pinned and len(failures) == 2


def test_a_pinned_mismatch_fails_every_operation():
    workload = workloads.WORKLOADS["cold-free"]
    workloads.record_pin("cold-free", 5, workloads.pin_setting("tiny", 1),
                         "0" * 64, 1.0)
    outcome = workload.timed(seed=5, seconds=1, scale="tiny")
    assert outcome.details["pinned"] and not outcome.correct
    assert outcome.failed == outcome.attempted


def test_tracer_self_time_excludes_children_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", record=False,
                after=lambda t, args, result: t.counters.update(inner=1))
    original = Layer.__dict__["outer"]
    with tracer.installed():
        assert Layer().outer() == 2
    assert Layer.__dict__["outer"] is original
    assert tracer.calls("inner", parent="outer") == 2
    assert tracer.counters["inner"] == 2
    assert tracer.self_s("outer") == pytest.approx(
        tracer.total_s("outer") - tracer.total_s("inner"))
    assert [span[2] for span in tracer.spans] == ["outer"]


def test_runner_fails_without_the_program(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-free",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"},
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
