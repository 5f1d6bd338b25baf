"""One fresh benchmark process: a set-up probe, a measured run or a traced run.

``run.py`` starts this file; it is not meant to be run by hand, but can be::

    python3 perfbench/worker.py --workload dispatch --seed 0 --mode measure --seconds 25

Every mode first builds the workload's world (imports included) and
prints ``READY``, which is how ``run.py`` times set-up from outside.
``setup`` then exits; ``measure`` and ``trace`` print one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 0
MIN_UNITS = 2


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist on it."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_fingerprints(
    name: str, seed: int, units: List[Any], reference: Dict[str, Any]
) -> List[str]:
    """Compare every unit with the first (same seed, same outputs) and,
    at the reference seed, with the committed reference. Marks each
    mismatching unit's operations as failed."""
    problems: List[str] = []
    expected = None
    if seed == reference["seed"]:
        expected = reference["workloads"].get(name)
        if expected is None:
            problems.append(f"no reference fingerprint for {name}")
    for index, unit in enumerate(units):
        if index and unit.fingerprint != units[0].fingerprint:
            problems.append(f"unit {index} fingerprint differs from unit 0")
            unit.failed = unit.attempted
        elif expected is not None and unit.fingerprint != expected:
            diff = sorted(
                key for key in set(expected) | set(unit.fingerprint)
                if expected.get(key) != unit.fingerprint.get(key)
            )
            problems.append(f"unit {index} differs from reference in {diff}")
            unit.failed = unit.attempted
    return problems


def op_ms(step_s: List[float], op_steps: List[List[int]]) -> List[float]:
    """Host ms of each run: its steps, from the first to the last."""
    cumulative = [0.0]
    for seconds in step_s:
        cumulative.append(cumulative[-1] + seconds)
    return [(cumulative[last + 1] - cumulative[first]) * 1000.0 for first, last in op_steps]


def measure(
    workload, seed: int, seconds: float, built: List[Any], inputs: Any
) -> Dict[str, Any]:
    """Timed units until ``seconds`` have passed, at least ``MIN_UNITS``.

    Every unit runs the same steps on the same inputs, so their step
    times differ only by how much the host disturbed them; the result
    keeps each step's fastest time, and ``run.py`` does the same across
    processes. ``built`` holds the world set up before ``READY``; it is
    popped so that no reference keeps a finished unit's world alive.
    """
    units = []
    state = built.pop()
    started = perf_counter()
    while True:
        gc.collect()  # collections then fall on the same steps in every unit
        units.append(workload.run(state, inputs))
        state = None
        if len(units) >= MIN_UNITS and perf_counter() - started >= seconds:
            break
        gc.collect()  # free the finished world before building the next
        state = workload.build(ROOT)
    problems = check_fingerprints(workload.name, seed, units, load_reference())
    for index, unit in enumerate(units):
        problems.extend(unit.problems)
        if (len(unit.step_s), unit.op_steps) != (len(units[0].step_s), units[0].op_steps):
            problems.append(f"unit {index} took other steps than unit 0")
            unit.failed = unit.attempted
    return {
        "unit_seconds": [unit.seconds for unit in units],
        "tasks": units[0].tasks,
        "runs": units[0].runs,
        "step_min": [min(times) for times in zip(*(u.step_s for u in units))],
        "op_steps": units[0].op_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "problems": problems[:20],
        "fingerprint": units[0].fingerprint,
        "counters": units[0].counters,
    }


def _tenth_medians(ops_ms: List[float]) -> List[float]:
    tenth = max(1, len(ops_ms) // 10)
    return [statistics.median(ops_ms[:tenth]), statistics.median(ops_ms[-tenth:])]


def trace(workload, seed: int, inputs: Any) -> Dict[str, Any]:
    """Untraced unit, traced unit, cProfile'd unit; each on a fresh world."""
    import tracing

    def one_unit(mark=lambda index: None):
        state = workload.build(ROOT)
        gc.collect()
        return workload.run(state, inputs, mark)

    plain, untraced_s = tracing.timed(None, one_unit)
    recorder = tracing.SpanRecorder()

    def mark(index: int) -> None:
        recorder.trace_id = index

    traced, traced_s = tracing.timed(recorder, lambda: one_unit(mark))
    profiled = tracing.profile_layers(one_unit)
    totals = recorder.layer_totals()
    span_path = os.path.join(TRACE_DIR, f"spans-{workload.name}-{seed}.jsonl")
    recorder.write(span_path)

    units = [plain, traced]
    problems = check_fingerprints(workload.name, seed, units, load_reference())
    for unit in units:
        problems.extend(unit.problems)

    metrics: Dict[str, float] = {}
    self_s = {layer: totals.get(layer, {}).get("self_s", 0.0) for layer in tracing.LAYERS}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = totals.get(layer, {}).get("calls", 0)
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / traced_s
    c = traced.counters
    tasks, runs = c["tasks"], c["runs"]
    first, last = (
        _tenth_medians(op_ms(plain.step_s, plain.op_steps))
        if workload.name == "ci_e2e" else (0.0, 0.0)
    )
    span_top = tracing.top_layers(self_s)
    profile_top = tracing.top_layers(profiled)
    metrics.update({
        "bench.tasks": tasks,
        "bench.runs": runs,
        "util.events": c["events"],
        "util.events_per_task": c["events"] / tasks,
        "util.peak_pending_events": c["peak_pending_events"],
        "telemetry.spans": c["spans"],
        "telemetry.spans_per_run": c["spans"] / runs if runs else 0.0,
        "telemetry.spans_retained": c["spans_retained"],
        "durability.records": c["journal_records"],
        "durability.records_per_task": c["journal_records"] / tasks,
        "scheduler.jobs": c["slurm_jobs"],
        "scheduler.jobs_per_run": c["slurm_jobs"] / runs if runs else 0.0,
        "executor.walltime_failures": c["walltime_failures"],
        "faas.overload.offered": c["offered"],
        "faas.overload.admitted": c["admitted"],
        "faas.overload.rejected": c["rejected"],
        "faas.overload.shed": c["shed"],
        "faas.overload.admit_ratio": c["admitted"] / c["offered"],
        "ci.run_ms_first_tenth": first,
        "ci.run_ms_last_tenth": last,
        "ci.run_ms_growth": last / first if first else 0.0,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.spans": len(recorder),
        "trace.cprofile_top3_match": float(set(span_top) == set(profile_top)),
    })
    return {
        "metrics": metrics,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "problems": problems[:20],
        "span_top3": span_top,
        "cprofile_top3": profile_top,
        "other_self_s": {
            layer: entry["self_s"] for layer, entry in totals.items()
            if layer not in tracing.LAYERS
        },
        "span_file": os.path.relpath(span_path, ROOT),
        "fingerprint": traced.fingerprint,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    built = [workload.build(ROOT)]
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        result = measure(workload, args.seed, args.seconds, built, inputs)
    else:
        built.clear()
        result = trace(workload, args.seed, inputs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
