"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ci_e2e --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics. Set-up time is the median
over several fresh processes, each timed from its start until its world
is ready. Then one fresh process per vCPU (two at most) repeats the
workload's unit of work on fresh worlds for ``--seconds``, at least
twice. A unit is a fixed sequence of short steps (a push, a slice of
submissions, a slice of the clock's drain) that is the same work in
every repetition, so the figures are computed from each step's fastest
repetition: the host these figures come from is shared, and a step
disturbed by its neighbours in one repetition is undisturbed in another.

``--trace 1`` prints the per-layer metrics from one traced unit
(``--seconds`` is not used).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the same figures for a reader. README.md defines every metric.
This file imports nothing from the program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter
from typing import Any, Dict, List, Tuple

from worker import op_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ci_e2e", "dispatch", "dispatch_journal", "overload")
SETUP_PROBES = 7
REPLICAS = min(2, len(os.sched_getaffinity(0)))
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    """A worker failed; the run prints no result."""


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile: p95 of 200 samples leaves 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _start(args: argparse.Namespace, mode: str) -> Tuple[float, subprocess.Popen]:
    command = [
        sys.executable, WORKER, "--workload", args.workload,
        "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
    ]
    started = perf_counter()
    return started, subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _finish(
    procs: List[Tuple[float, subprocess.Popen]], deadline: float
) -> List[Tuple[float, Dict[str, Any]]]:
    """Wait for workers; per worker (seconds until READY, JSON result).

    A timer kills every worker at the deadline; each is reaped on the
    way out, whatever happens.
    """
    timer = threading.Timer(
        max(0.1, deadline - perf_counter()),
        lambda: [proc.kill() for _, proc in procs],
    )
    timer.start()
    results = []
    try:
        for started, proc in procs:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - started
            if ready.strip() != "READY":
                raise BenchError("a worker failed during set-up or ran out of time")
            lines = proc.stdout.read().strip().splitlines()
            if proc.wait() != 0:
                raise BenchError(f"a worker exited {proc.returncode}")
            results.append((setup_s, json.loads(lines[-1]) if lines else {}))
    finally:
        timer.cancel()
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    return results


def _summary(result: Dict[str, Any], metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    print(f"  failed_ops/attempted_ops {result['failed']}/{result['attempted']}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_untraced(args: argparse.Namespace, deadline: float, units: Dict[str, str]) -> Dict[str, Any]:
    setups = [
        _finish([_start(args, "setup")], deadline)[0][0] for _ in range(SETUP_PROBES)
    ]
    replicas = [r for _, r in _finish(
        [_start(args, "measure") for _ in range(REPLICAS)], deadline
    )]
    first = replicas[0]
    problems = [p for r in replicas for p in r["problems"]]
    failed = sum(r["failed"] for r in replicas)
    for index, replica in enumerate(replicas[1:], 1):
        if (replica["fingerprint"], replica["op_steps"], len(replica["step_min"])) != (
            first["fingerprint"], first["op_steps"], len(first["step_min"])
        ):
            problems.append(f"process {index} produced other outputs than process 0")
            failed += replica["attempted"]
    step_min = [min(times) for times in zip(*(r["step_min"] for r in replicas))]
    run_ms = op_ms(step_min, first["op_steps"])
    unit_s = sum(step_min)
    units_run = sum(len(r["unit_seconds"]) for r in replicas)
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": first["tasks"] / unit_s,
        "runs_per_s": first["runs"] / unit_s,
        "run_ms_p50": percentile(run_ms, 50),
        "run_ms_p95": percentile(run_ms, 95),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in replicas),
    }
    of_units = f"fastest of {units_run} units, {len(step_min)} steps each"
    samples = {
        "setup_s": f"median of {len(setups)} processes",
        "tasks_per_s": f"{first['tasks']} tasks/unit, {of_units}",
        "runs_per_s": f"{first['runs']} runs/unit, {of_units}",
        "run_ms_p50": f"{len(run_ms)} runs, {of_units}",
        "run_ms_p95": f"{len(run_ms)} runs, {of_units}",
        "peak_rss_mb": f"max of {len(replicas)} processes",
    }
    print(
        f"workload {args.workload}  seed {args.seed}  unit host s: "
        + "  ".join(
            " ".join(f"{s:.3f}" for s in r["unit_seconds"]) for r in replicas
        )
    )
    for name, value in metrics.items():
        print(f"  {name:<12} {value:>12.4f} {units[name]:<8} {samples[name]}")
    return _summary(
        {"failed": failed, "attempted": sum(r["attempted"] for r in replicas),
         "problems": problems[:20]},
        metrics, units,
    )


def run_traced(args: argparse.Namespace, deadline: float, units: Dict[str, str]) -> Dict[str, Any]:
    [(_, result)] = _finish([_start(args, "trace")], deadline)
    metrics = result["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  traced unit")
    print(f"  spans written to {result['span_file']}")
    layers = sorted(
        (name[: -len(".self_s")] for name in metrics if name.endswith(".self_s")),
        key=lambda layer: -metrics[f"{layer}.self_s"],
    )
    print(f"  {'layer':<14} {'calls':>10} {'self_s':>10} {'share':>7}")
    for layer in layers:
        print(
            f"  {layer:<14} {metrics[layer + '.calls']:>10} "
            f"{metrics[layer + '.self_s']:>10.4f} {metrics[layer + '.share']:>7.1%}"
        )
    for layer, seconds in sorted(result["other_self_s"].items()):
        print(f"  {layer:<14} {'':>10} {seconds:>10.4f}  (outside the layers)")
    print(
        f"  top 3 by span self time {result['span_top3']}, "
        f"by cProfile {result['cprofile_top3']}"
    )
    for name, value in metrics.items():
        if not name.endswith((".calls", ".self_s", ".share")):
            print(f"  {name:<28} {value:>14.4f} {units[name]}")
    return _summary(result, metrics, units)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True,
        help="one workload, or 'all' for every workload BENCHMARK.json lists",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        names = (
            [w["name"] for w in spec["workloads"]]
            if args.workload == "all" else [args.workload]
        )
        summaries = {}
        for name in names:
            args.workload = name
            deadline = perf_counter() + DEADLINE_S
            run = run_traced if args.trace else run_untraced
            summaries[name] = run(args, deadline, units)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps(summaries if len(names) > 1 else summaries[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
