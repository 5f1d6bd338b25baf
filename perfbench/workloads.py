"""The four seeded workloads, driven only through the simulator's public API.

Each workload has three parts:

* ``inputs(seed)`` — everything random, generated up front from the
  seed; the simulator only ever sees these values;
* ``build(root)`` — the untimed set-up: a fresh ``World`` with its sites
  and endpoints (and, for ``ci_e2e``, the prepared suite and its
  initial CI run);
* ``run(state, inputs, mark)`` — the timed phase, followed by the
  untimed output checks. It returns a :class:`Unit`.

The timed phase is a fixed sequence of short **steps**: a push, the
virtual-time gap before it, a slice of submissions, or a slice of the
clock's drain (every event up to ``DRAIN_DELTA`` virtual seconds past
the next pending one). Step boundaries depend only on the inputs, so
step *k* is the same work in every unit of a seed, and ``run.py``
combines units step by step. Each run records the steps it spans.

``mark(index)`` is called before each operation or phase so the traced
run can tag spans with it (the trace id). The workloads and why each
was chosen are in README.md.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

CI_PUSHES = 200
CI_SUITE = os.path.join("suites", "fig4-sweep.yaml")
CI_MEAN_GAP = 120.0  # virtual seconds between pushes, exponential
CI_NOTE_FILES = 4
DISPATCH_TASKS = 20_000
JOURNAL_TASKS = 5_000
JOURNAL_BATCH = 256
OVERLOAD_TASKS = 10_000
ENDPOINTS = 8
TENANTS = 8
MEAN_SECONDS = 2.0
SUBMIT_SLICE = 100  # submissions per step
DRAIN_DELTA = 1.0  # virtual seconds of events per drain step

TERMINAL_RUN = ("success", "failure")
TERMINAL_TASK_EVENTS = ("task.completed", "task.cancelled")  # a refusal completes too
_FAILED_TASK = re.compile(r"task ([0-9a-f-]+) failed remotely")
COUNTERS = (
    "events", "tasks", "runs", "peak_pending_events", "spans",
    "spans_retained", "journal_records", "slurm_jobs", "walltime_failures",
    "offered", "admitted", "rejected", "shed",
)


@dataclass
class Unit:
    """One timed unit of a workload and its checked outputs."""

    step_s: List[float]  # host seconds of each step of the timed phase
    op_steps: List[Tuple[int, int]]  # first and last step of each run
    runs: int  # runs that reached a terminal state
    tasks: int  # FaaS tasks disposed (completed, failed or refused)
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.step_s)


def _counters(**values: float) -> Dict[str, float]:
    counters = dict.fromkeys(COUNTERS, 0)
    counters.update(values)
    return counters


def _no_mark(index: int) -> None:
    return None


def _event_counts(events) -> Dict[str, int]:
    counts = Counter(f"{e.source}/{e.kind}" for e in events)
    return dict(sorted(counts.items()))


def _new_events(world, since: int) -> List[Any]:
    return list(itertools.islice(world.events, since, None))


def _bench_work(fctx, seconds: float) -> float:
    """The synthetic task body: burn ``seconds`` of virtual compute."""
    fctx.handle.compute(seconds)
    return seconds


def _problem(problems: List[str], text: str) -> None:
    if len(problems) < 20:
        problems.append(text)


# ---------------------------------------------------------------------------
# ci_e2e: closed loop, one pusher, the paper's push -> CORRECT path
# ---------------------------------------------------------------------------


class CiE2E:
    name = "ci_e2e"

    def inputs(self, seed: int) -> List[Tuple[float, str, Dict[str, str]]]:
        rng = random.Random(seed)
        pushes = []
        for index in range(CI_PUSHES):
            gap = rng.expovariate(1.0 / CI_MEAN_GAP)
            path = f"notes/note-{rng.randrange(CI_NOTE_FILES)}.md"
            pushes.append(
                (gap, f"bench push {index}", {path: f"{rng.getrandbits(64):016x}\n"})
            )
        return pushes

    def build(self, root: str) -> Any:
        from repro.suites import runner

        # telemetry on, as ``repro suite run`` uses it by default
        prepared = runner.prepare_suite(os.path.join(root, CI_SUITE))
        first = runner.execute_suite(prepared)
        if first.status not in TERMINAL_RUN:
            raise RuntimeError(f"initial CI run ended {first.status!r}")
        return prepared

    def run(self, prepared, pushes, mark: Callable[[int], None] = _no_mark) -> Unit:
        world = prepared.world
        clock, hub, runs = world.clock, world.hub, world.engine.runs
        slug, author = prepared.spec.repo_slug, prepared.user.login
        events_before = len(world.events)
        spans_before = len(world.tracer.spans)
        virtual_start = clock.now
        step_s: List[float] = []
        op_steps: List[Tuple[int, int]] = []
        outcomes: List[Tuple[List[Any], str]] = []
        peak_pending = clock.pending_events()

        for index, (gap, message, patch) in enumerate(pushes):
            mark(index)
            started = perf_counter()
            clock.advance(gap)
            step_s.append(perf_counter() - started)
            before = len(runs)
            error = ""
            started = perf_counter()
            try:
                hub.push_commit(slug, author=author, message=message, patch=patch)
                if len(runs) > before and runs[-1].status not in TERMINAL_RUN:
                    clock.run_until_idle()
            except Exception as exc:  # noqa: BLE001 - a failed operation
                error = f"{type(exc).__name__}: {exc}"
            step_s.append(perf_counter() - started)
            op_steps.append((len(step_s) - 1, len(step_s) - 1))
            outcomes.append((runs[before:], error))
            peak_pending = max(peak_pending, clock.pending_events())

        problems: List[str] = []
        failed = 0
        statuses: List[str] = []
        for index, (new_runs, error) in enumerate(outcomes):
            why = error or _check_run(world, new_runs)
            if why:
                failed += 1
                _problem(problems, f"push {index}: {why}")
            statuses.append(new_runs[0].status if len(new_runs) == 1 else "none")

        events = _new_events(world, events_before)
        tasks, walltime = _task_outcomes(world, events)
        unresolved = _unresolved_tasks(world, events)
        if unresolved:
            _problem(problems, f"{unresolved} task futures unresolved")
        slurm_jobs = sum(
            1 for e in events
            if e.source.endswith("-slurm") and e.kind == "job.submitted"
        )
        terminal_runs = sum(1 for s in statuses if s in TERMINAL_RUN)
        spans_retained = len(world.tracer.spans)
        fingerprint = {
            "virtual_makespan": round(clock.now - virtual_start, 6),
            "events": _event_counts(events),
            "run_statuses": dict(sorted(Counter(statuses).items())),
            "status_sequence": hashlib.sha256(
                ",".join(statuses).encode()
            ).hexdigest()[:16],
        }
        return Unit(
            step_s=step_s,
            op_steps=op_steps,
            runs=terminal_runs,
            tasks=tasks,
            attempted=len(pushes),
            failed=failed + unresolved,
            problems=problems,
            fingerprint=fingerprint,
            counters=_counters(
                events=len(events), tasks=tasks, runs=terminal_runs,
                peak_pending_events=peak_pending,
                spans=spans_retained - spans_before,
                spans_retained=spans_retained, slurm_jobs=slurm_jobs,
                walltime_failures=walltime, offered=tasks, admitted=tasks,
            ),
        )


def _check_run(world, new_runs: List[Any]) -> str:
    """Why a push's outcome is wrong; '' when it is a checked output.

    A run that fails because a reused pilot hit its walltime is the
    simulated system's behaviour, not a benchmark failure.
    """
    if len(new_runs) != 1:
        return f"{len(new_runs)} runs triggered, expected 1"
    run = new_runs[0]
    if run.status not in TERMINAL_RUN:
        return f"run {run.run_id} not terminal ({run.status})"
    for job in run.jobs.values():
        if not job.finished:
            return f"job {job.job_id} not finished ({job.status})"
        if job.status == "failure":
            errors = [o.error for o in job.step_outcomes if o.status == "failure"]
            failed_task = _FAILED_TASK.search(errors[0]) if errors else None
            cause = (
                world.faas.get_task(failed_task.group(1)).exception_text or ""
                if failed_task else ""
            )
            if not cause.startswith("WalltimeExceeded"):
                return f"job {job.job_id} failed: {(errors or ['?'])[0][:120]}"
    return ""


def _task_outcomes(world, events) -> Tuple[int, int]:
    """(tasks disposed, tasks failed by a pilot walltime) among ``events``."""
    disposed = walltime = 0
    for e in events:
        if e.source != "faas" or e.kind not in TERMINAL_TASK_EVENTS:
            continue
        disposed += 1
        if e.kind == "task.completed" and e.data.get("state") == "FAILED":
            text = world.faas.get_task(e.data["task_id"]).exception_text or ""
            walltime += text.startswith("WalltimeExceeded")
    return disposed, walltime


def _unresolved_tasks(world, events) -> int:
    return sum(
        1 for e in events
        if e.source == "faas" and e.kind == "task.submitted"
        and not world.faas.get_future(e.data["task_id"]).done()
    )


# ---------------------------------------------------------------------------
# task workloads: shared step bookkeeping and checks
# ---------------------------------------------------------------------------


@dataclass
class _TaskState:
    world: Any
    clients: List[Any]
    function_ids: List[str]
    targets: List[str]


class _StepStamps:
    """The step each task was submitted in and resolved in."""

    def __init__(self, count: int) -> None:
        self.current = 0
        self.submitted = [-1] * count
        self.resolved = [-1] * count

    def submit(self, index: int, future) -> None:
        self.submitted[index] = self.current
        future.add_done_callback(self._resolver(index))

    def _resolver(self, index: int) -> Callable[[Any], None]:
        def resolved(_future) -> None:
            self.resolved[index] = self.current

        return resolved


def _drain(clock, step_s: List[float], stamps: _StepStamps) -> None:
    """Run the clock until idle, one ``DRAIN_DELTA`` window per step."""
    while True:
        head = clock.next_event_time()
        if head is None:
            return
        stamps.current = len(step_s)
        started = perf_counter()
        clock.run_until_idle(limit=head + DRAIN_DELTA)
        step_s.append(perf_counter() - started)


def _check_result(future, expected: float) -> str:
    if not future.done():
        return "future unresolved"
    error = future.exception()
    if error is not None:
        return f"{type(error).__name__}: {error}"
    if future.result() != expected:
        return f"result {future.result()!r} != {expected!r}"
    return ""


# ---------------------------------------------------------------------------
# dispatch / dispatch_journal: one burst over an 8-endpoint pool
# ---------------------------------------------------------------------------


class Dispatch:
    name = "dispatch"
    tasks = DISPATCH_TASKS
    journal = False

    def inputs(self, seed: int) -> List[float]:
        rng = random.Random(seed)
        return [MEAN_SECONDS * (0.5 + rng.random()) for _ in range(self.tasks)]

    def build(self, root: str) -> _TaskState:
        from repro.experiments import common
        from repro.faas.client import ComputeClient
        from repro.world import World

        world = World(telemetry=False)
        if self.journal:
            from repro.durability.journal import Journal

            world.attach_journal(Journal(batch_size=JOURNAL_BATCH))
        user = world.register_user("bench", {"chameleon": "bench"})
        pool = common.deploy_site_mep_pool(world, "chameleon", size=ENDPOINTS)
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        function_id = client.register_function(_bench_work, "bench-work")
        return _TaskState(
            world, [client], [function_id], [mep.endpoint_id for mep in pool]
        )

    def run(self, state: _TaskState, durations, mark=_no_mark) -> Unit:
        world, client = state.world, state.clients[0]
        clock, targets, function_id = world.clock, state.targets, state.function_ids[0]
        count = len(durations)
        stamps = _StepStamps(count)
        futures = []
        events_before = len(world.events)
        virtual_start = clock.now
        step_s: List[float] = []
        peak_pending = 0

        mark(0)
        for base in range(0, count, SUBMIT_SLICE):
            stamps.current = len(step_s)
            started = perf_counter()
            for index in range(base, min(base + SUBMIT_SLICE, count)):
                future = client.submit(
                    targets[index % ENDPOINTS], function_id, durations[index]
                )
                stamps.submit(index, future)
                futures.append(future)
            step_s.append(perf_counter() - started)
            peak_pending = max(peak_pending, clock.pending_events())
        mark(1)
        _drain(clock, step_s, stamps)
        if world.journal is not None:
            started = perf_counter()
            world.journal.flush()
            step_s.append(perf_counter() - started)

        problems: List[str] = []
        failed = 0
        for index, future in enumerate(futures):
            why = _check_result(future, durations[index])
            if why:
                failed += 1
                _problem(problems, f"task {index}: {why}")
        events = _new_events(world, events_before)
        fingerprint: Dict[str, Any] = {
            "virtual_makespan": round(clock.now - virtual_start, 6),
            "events": _event_counts(events),
            "completed": count - failed,
        }
        records = 0
        if world.journal is not None:
            records = len(world.journal)
            try:
                world.journal.verify()
                fingerprint["journal_head"] = world.journal.head_hash
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                failed += 1
                _problem(problems, f"journal does not verify: {exc}")
            fingerprint["journal_records"] = records
        return Unit(
            step_s=step_s,
            op_steps=list(zip(stamps.submitted, stamps.resolved)),
            runs=count,
            tasks=count,
            attempted=count,
            failed=failed,
            problems=problems,
            fingerprint=fingerprint,
            counters=_counters(
                events=len(events), tasks=count, runs=count,
                peak_pending_events=peak_pending,
                spans_retained=len(world.tracer.spans),
                journal_records=records, offered=count, admitted=count,
            ),
        )


class DispatchJournal(Dispatch):
    name = "dispatch_journal"
    tasks = JOURNAL_TASKS
    journal = True


# ---------------------------------------------------------------------------
# overload: open loop in virtual time through the overload plane
# ---------------------------------------------------------------------------


class Overload:
    name = "overload"
    tasks = OVERLOAD_TASKS

    def inputs(self, seed: int) -> List[Tuple[float, int, float, int]]:
        """(arrival time, tenant, duration, priority), per-tenant Poisson
        streams offering 2x the pool's service rate in total."""
        per_tenant = self.tasks // TENANTS
        rate = 2.0 * (ENDPOINTS / MEAN_SECONDS) / TENANTS
        arrivals = []
        for tenant in range(TENANTS):
            rng = random.Random(seed * 1_000_003 + tenant)
            count = per_tenant + (1 if tenant < self.tasks % TENANTS else 0)
            t = 0.0
            for _ in range(count):
                t += rng.expovariate(rate)
                duration = MEAN_SECONDS * (0.5 + rng.random())
                draw = rng.random()
                # 10% critical (0), 60% normal (1), 30% batch (2)
                priority = 0 if draw < 0.10 else 1 if draw < 0.70 else 2
                arrivals.append((t, tenant, duration, priority))
        return arrivals

    def build(self, root: str) -> _TaskState:
        from repro.experiments import common
        from repro.experiments.overload import OverloadParams, overload_config
        from repro.faas.client import ComputeClient
        from repro.world import World

        shape = OverloadParams(
            tenants=TENANTS, endpoints=ENDPOINTS, mean_seconds=MEAN_SECONDS,
            offered_utilization=2.0,
        )
        world = World(
            telemetry=False,
            overload=overload_config(shape),
            placement_policy="least-loaded",
        )
        common.deploy_site_mep_pool(world, "chameleon", size=ENDPOINTS)
        clients, function_ids = [], []
        for tenant in range(TENANTS):
            login = f"bench-{tenant}"
            user = world.register_user(login, {"chameleon": f"x-{login}"})
            client = ComputeClient(world.faas, user.client_id, user.client_secret)
            clients.append(client)
            function_ids.append(
                client.register_function(_bench_work, f"bench-work-{tenant}")
            )
        return _TaskState(world, clients, function_ids, ["chameleon"])

    def run(self, state: _TaskState, arrivals, mark=_no_mark) -> Unit:
        from repro.errors import AdmissionRejected

        world, clients, function_ids = state.world, state.clients, state.function_ids
        clock = world.clock
        count = len(arrivals)
        stamps = _StepStamps(count)
        futures: List[Any] = [None] * count
        events_before = len(world.events)
        virtual_start = clock.now
        step_s: List[float] = []

        def submit(index: int) -> None:
            _, tenant, duration, priority = arrivals[index]
            future = clients[tenant].submit(
                "chameleon", function_ids[tenant], duration, priority=priority
            )
            stamps.submit(index, future)
            futures[index] = future

        mark(0)
        started = perf_counter()
        for index, (arrival, *_rest) in enumerate(arrivals):
            clock.call_after(arrival, _arrival(submit, index))
        step_s.append(perf_counter() - started)
        peak_pending = clock.pending_events()
        mark(1)
        _drain(clock, step_s, stamps)

        problems: List[str] = []
        failed = completed = task_failed = rejected = shed = 0
        op_steps: List[Tuple[int, int]] = []
        for index, future in enumerate(futures):
            if future is None or not future.done():
                failed += 1
                _problem(problems, f"task {index}: never submitted or unresolved")
                continue
            error = future.exception()
            if isinstance(error, AdmissionRejected):
                if error.reason == "shed":
                    shed += 1
                else:
                    rejected += 1
                continue
            why = _check_result(future, arrivals[index][2])
            if why:
                failed += 1
                task_failed += 1
                _problem(problems, f"task {index}: {why}")
            else:
                completed += 1
            op_steps.append((stamps.submitted[index], stamps.resolved[index]))
        stats = world.faas.overload.stats
        if completed + task_failed + rejected + shed != count:
            _problem(problems, "submitted != completed + failed + rejected + shed")
            failed += 1
        if (stats.admitted, stats.rejected, stats.shed) != (
            completed + task_failed, rejected, shed
        ):
            _problem(
                problems,
                f"controller counts {stats.admitted}/{stats.rejected}/{stats.shed}"
                f" != futures {completed + task_failed}/{rejected}/{shed}",
            )
            failed += 1
        events = _new_events(world, events_before)
        fingerprint = {
            "virtual_makespan": round(clock.now - virtual_start, 6),
            "events": _event_counts(events),
            "admitted": stats.admitted,
            "rejected": stats.rejected,
            "shed": stats.shed,
            "completed": completed,
        }
        return Unit(
            step_s=step_s,
            op_steps=op_steps,
            runs=completed + task_failed,
            tasks=count,
            attempted=count,
            failed=failed,
            problems=problems,
            fingerprint=fingerprint,
            counters=_counters(
                events=len(events), tasks=count, runs=completed + task_failed,
                peak_pending_events=peak_pending,
                spans_retained=len(world.tracer.spans), offered=count,
                admitted=stats.admitted, rejected=stats.rejected, shed=stats.shed,
            ),
        )


def _arrival(submit: Callable[[int], None], index: int) -> Callable[[], None]:
    def arrive() -> None:
        submit(index)

    return arrive


WORKLOADS = {
    w.name: w for w in (CiE2E(), Dispatch(), DispatchJournal(), Overload())
}
