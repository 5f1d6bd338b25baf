"""The benchmark's own tests: its checks catch wrong outputs, its counters
repeat, its invariants hold on a held-out seed, and its tracing agrees
with cProfile.

    python3 -m pytest perfbench -q

Each test builds fresh worlds in this process; the ``ci_e2e`` cases run
200 pushes each, so the whole file takes a few minutes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402

worker.import_program()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HELD_OUT_SEED = 20_261
# counters that are simulated outputs, so a seed fixes them exactly
DETERMINISTIC = (
    "events", "tasks", "runs", "peak_pending_events", "spans",
    "spans_retained", "journal_records", "slurm_jobs", "walltime_failures",
    "offered", "admitted", "rejected", "shed",
)


def one_unit(name: str, seed: int):
    workload = WORKLOADS[name]
    return workload.run(workload.build(worker.ROOT), workload.inputs(seed))


def test_reference_passes_and_perturbed_reference_fails():
    unit = one_unit("dispatch_journal", worker.DEFAULT_SEED)
    reference = worker.load_reference()
    assert worker.check_fingerprints(
        "dispatch_journal", worker.DEFAULT_SEED, [unit], reference
    ) == []
    assert unit.failed == 0

    for key in ("virtual_makespan", "journal_head", "events"):
        perturbed = copy.deepcopy(reference)
        expected = perturbed["workloads"]["dispatch_journal"]
        if key == "events":
            expected[key]["faas/task.completed"] += 1
        elif key == "journal_head":
            expected[key] = "0" * 64
        else:
            expected[key] += 1e-6
        unit.failed = 0
        problems = worker.check_fingerprints(
            "dispatch_journal", worker.DEFAULT_SEED, [unit], perturbed
        )
        assert problems and key in problems[0]
        assert unit.failed == unit.attempted


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_seed_invariants_and_repeatable_counters(name):
    """On a seed the reference never saw: every future resolves, tasks
    are conserved, each push yields one terminal run, the journal
    verifies (all checked inside ``run``), and a second same-seed run
    repeats every counter and the fingerprint exactly."""
    first = one_unit(name, HELD_OUT_SEED)
    second = one_unit(name, HELD_OUT_SEED)
    for unit in (first, second):
        assert unit.problems == []
        assert unit.failed == 0
        assert unit.attempted > 0
    assert first.fingerprint == second.fingerprint
    assert {k: first.counters[k] for k in DETERMINISTIC} == {
        k: second.counters[k] for k in DETERMINISTIC
    }
    c = first.counters
    assert c["offered"] == c["admitted"] + c["rejected"] + c["shed"]
    assert c["tasks"] == c["offered"]


def test_seed_changes_inputs():
    for workload in WORKLOADS.values():
        assert workload.inputs(1) == workload.inputs(1)
        assert workload.inputs(1) != workload.inputs(2)


@pytest.mark.parametrize("name", ["dispatch", "ci_e2e"])
def test_traced_run_matches_cprofile_and_changes_no_output(name):
    result = worker.trace(WORKLOADS[name], worker.DEFAULT_SEED, WORKLOADS[name].inputs(worker.DEFAULT_SEED))
    assert result["problems"] == [] and result["failed"] == 0
    assert set(result["span_top3"]) == set(result["cprofile_top3"])
    metrics = result["metrics"]
    assert metrics["trace.cprofile_top3_match"] == 1.0
    assert 0.0 < sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS) <= 1.0
    if name == "ci_e2e":
        assert "telemetry" in result["span_top3"]
        assert metrics["bench.runs"] == 200
    span_file = os.path.join(worker.ROOT, result["span_file"])
    with open(span_file, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert len(first) == 6  # name, layer, start, end, parent, trace id


def test_recorder_self_time_subtracts_children():
    recorder = tracing.SpanRecorder()

    def inner():
        return sum(range(20_000))

    outer_inner = recorder.wrap(inner, "inner", "util")

    def outer():
        return outer_inner() + outer_inner()

    recorder.wrap(outer, "outer", "faas")()
    totals = recorder.layer_totals()
    assert totals["util"]["calls"] == 2 and totals["faas"]["calls"] == 1
    whole = recorder.end[0] - recorder.start[0]
    assert totals["faas"]["self_s"] + totals["util"]["self_s"] == pytest.approx(whole)
    assert list(recorder.parent) == [-1, 0, 0]


def test_install_restores_every_patch():
    from repro.util.clock import SimClock
    from repro.suites import runner

    before = (SimClock.call_at, runner.prepare_suite, vars(SimClock).get("advance"))
    recorder = tracing.SpanRecorder()
    recorder.install()
    assert SimClock.call_at is not before[0]
    recorder.uninstall()
    assert (SimClock.call_at, runner.prepare_suite, vars(SimClock).get("advance")) == before


def test_run_fails_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero and prints no result."""
    bare = os.path.join(worker.TRACE_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dispatch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
