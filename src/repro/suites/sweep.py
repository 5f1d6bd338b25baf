"""Suite sweeps: run every instance directly through the FaaS path.

``repro suite run <file> --permute`` bypasses the CI engine entirely:
the suite's instances are submitted as concurrent CORRECT flows
(:func:`~repro.core.driver.execute_correct_async`), optionally under a
chaos fault profile and a non-pinned placement policy. This is the
"expand one suite file into N parameterized executions" half of the
declarative-suite story — same spec, same deterministic expansion, but
the FaaS layer (retries, breakers, routing, overload shedding, hedging)
is exercised without workflow gating in between.

The sweep stamps its own :class:`ExecutionRecord`\\ s (the engine-side
provenance hook never sees these tasks), so suite/series/permutation
identity lands in the store exactly as it does for workflow runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.suites.parsers import make_parser
from repro.suites.runner import InstanceResult, PreparedSuite, prepare_suite
from repro.suites.spec import SuiteSpec, load_suite

# resilience defaults for profiled sweeps, mirroring the chaos harness;
# a suite's top-level ``retry:`` block overrides them
SWEEP_RETRY = dict(
    max_attempts=5, base_delay=5.0, multiplier=2.0, max_delay=120.0,
    jitter=0.1,
)


@dataclass
class SweepResult:
    """All instance outcomes of one direct-FaaS suite sweep."""

    spec: SuiteSpec
    world: Any
    seed: int
    profile: str
    policy: str
    results: List[InstanceResult] = field(default_factory=list)
    makespan: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.status != "failed" for r in self.results)

    def counts(self) -> Dict[str, int]:
        counts = {"ok": 0, "failed": 0, "skipped": 0}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts


def _sweep_target(prepared: PreparedSuite, instance, pool_size: int) -> str:
    if instance.route == "pool" or pool_size > 1:
        return instance.target  # site name: the placement policy decides
    return prepared.endpoints[instance.target]


def run_sweep(
    spec,
    seed: int = 7,
    profile: str = "",
    policy: str = "pinned",
    pool_size: int = 1,
    overrides: Optional[Dict[str, Any]] = None,
    telemetry: bool = True,
    world_setup=None,
    overload=None,
    hedge=None,
) -> SweepResult:
    """Expand a suite and run every active instance through FaaS.

    Deterministic for a fixed (suite, overrides, seed, profile, policy):
    instances are submitted in expansion order and drained in the same
    order, so two identical invocations produce byte-identical reports —
    the property the ``suite-smoke`` CI job asserts under chaos.
    """
    from repro.core.driver import execute_correct_async
    from repro.core.inputs import CorrectInputs
    from repro.core.remote import FN_RUN_SHELL
    from repro.errors import ReproError
    from repro.faults.profiles import FAULT_FREE_PROFILES, build_profile
    from repro.provenance.record import ExecutionRecord

    spec = load_suite(spec)
    plan = None
    if profile and profile not in FAULT_FREE_PROFILES:
        plan = build_profile(profile, seed)
    retry_policy = None
    if plan is not None:
        from repro.faults.resilience import RetryPolicy

        retry_policy = RetryPolicy(seed=seed, **(spec.retry or SWEEP_RETRY))

    prepared = prepare_suite(
        spec,
        overrides=overrides,
        telemetry=telemetry,
        world_setup=world_setup,
        faults=plan,
        arm_faults="after-setup" if plan is not None else "none",
        retry_policy=retry_policy,
        offline_policy="queue" if plan is not None else "raise",
        placement_policy=policy,
        pool_size=pool_size,
        gated=False,
        overload=overload,
        hedge=hedge,
    )
    world, user, mat = prepared.world, prepared.user, prepared.mat
    world.provenance.set_suite_context(
        {
            instance.stdout_artifact: (
                instance.suite, instance.series, instance.permutation
            )
            for instance in mat.active
        }
    )

    # the repo exists (clones need it) but carries no workflow file, so
    # the push triggers no CI run — execution happens via FaaS directly
    world.hub.create_repo(spec.repo_slug, owner=user.login)
    world.hub.push_commit(
        spec.repo_slug, author=user.login,
        message="Initial commit", files=prepared.files,
    )

    started_at = world.clock.now
    outcomes: Dict[str, InstanceResult] = {}
    pending: List[tuple] = []

    def _finalize(instance, future) -> None:
        try:
            result = future.result()
        except ReproError as exc:
            outcomes[instance.instance_id] = InstanceResult(
                instance=instance, status="failed",
                reason=f"{type(exc).__name__}: {exc}",
            )
            return
        task = world.faas.get_task(result.task_id)
        record = ExecutionRecord(
            record_id=world.provenance.next_record_id(),
            run_id="sweep",
            repo_slug=spec.repo_slug,
            commit_sha=result.sha,
            site=instance.target,
            endpoint_id=task.endpoint_id,
            identity_urn=task.identity_urn,
            function_name=FN_RUN_SHELL,
            command=instance.command,
            started_at=task.started_at or 0.0,
            completed_at=task.completed_at or 0.0,
            exit_code=result.exit_code,
            stdout_artifact=instance.stdout_artifact,
            stderr_artifact=f"{instance.artifact_prefix}-stderr",
            fault_seed=plan.seed if plan is not None else None,
            fault_profile=plan.profile if plan is not None else "",
            task_attempts=task.attempts,
            routed_by=task.routed_by,
            pool=task.pool,
            queue_depth_at_route=task.queue_depth_at_route,
        )
        world.provenance.add(record)
        if result.ok:
            parser = make_parser(instance.parse)
            outcomes[instance.instance_id] = InstanceResult(
                instance=instance, status="ok",
                stdout=result.stdout, stderr=result.stderr,
                parsed=parser.parse(result.stdout),
            )
        else:
            outcomes[instance.instance_id] = InstanceResult(
                instance=instance, status="failed",
                reason=f"command exited {result.exit_code}",
                stdout=result.stdout, stderr=result.stderr,
            )

    # under the overload plane a client must respect the plane's own
    # envelope: cap concurrent flows at the in-flight quota (each flow
    # keeps at most one task in flight) and at *half* the rate burst —
    # every flow submits twice (clone, then shell) and mid-flow
    # submissions cannot back off, so they need burst headroom reserved.
    # Unprotected sweeps stay fully concurrent.
    window = None
    if overload is not None:
        window = max(
            1,
            min(overload.tenant_max_inflight, int(overload.tenant_burst) // 2),
        )

    for instance in mat.active:
        inputs = CorrectInputs(
            client_id=user.client_id,
            client_secret=user.client_secret,
            endpoint_uuid=_sweep_target(prepared, instance, pool_size),
            shell_cmd=instance.command,
            clone=instance.clone,
            conda_env=instance.conda_env,
            artifact_prefix=instance.artifact_prefix,
            container_image=instance.container_image,
            timeout=instance.timeout,
        )
        while window is not None and len(pending) >= window:
            _finalize(*pending.pop(0))
        # admission may still reject the submission itself (rate quota,
        # in-flight cap, shed). A real client backs off: drain the
        # oldest in-flight flow — virtual time advances, tokens refill,
        # in-flight drops — and resubmit; with nothing left to drain,
        # sleep for one rate-quota token (bounded) before giving up.
        # Submission and drain order stay deterministic either way.
        refill_waits = 3
        while True:
            try:
                future = execute_correct_async(
                    world.faas, inputs, spec.repo_slug, "main"
                )
            except ReproError as exc:
                if pending:
                    _finalize(*pending.pop(0))
                    continue
                if (
                    overload is not None
                    and overload.tenant_rate > 0.0
                    and refill_waits > 0
                ):
                    refill_waits -= 1
                    world.clock.advance(1.0 / overload.tenant_rate)
                    continue
                outcomes[instance.instance_id] = InstanceResult(
                    instance=instance, status="failed",
                    reason=f"{type(exc).__name__}: {exc}",
                )
                break
            pending.append((instance, future))
            break

    for instance, future in pending:
        _finalize(instance, future)
    makespan = world.clock.now - started_at

    results: List[InstanceResult] = []
    for instance in mat.instances:
        if instance.skipped:
            results.append(
                InstanceResult(
                    instance=instance, status="skipped",
                    reason=instance.skip_reason,
                )
            )
        else:
            results.append(outcomes[instance.instance_id])
    return SweepResult(
        spec=spec, world=world, seed=seed,
        profile=plan.profile if plan is not None else "",
        policy=policy, results=results, makespan=makespan,
    )


def format_sweep_report(sweep: SweepResult) -> str:
    """Deterministic plain-text sweep report (byte-identical per seed)."""
    counts = sweep.counts()
    active = counts["ok"] + counts["failed"]
    lines = [
        f"Suite sweep — {sweep.spec.name} "
        f"({len(sweep.results)} instances, {active} active)",
        f"seed {sweep.seed}, profile "
        f"{sweep.profile or 'none'!r}, policy {sweep.policy!r}",
        f"makespan: {sweep.makespan:.2f}s",
        "",
    ]
    for result in sweep.results:
        instance = result.instance
        detail = ""
        if result.status == "ok":
            attempts = _attempts_for(sweep, instance)
            detail = f"attempts={attempts}" if attempts else ""
        else:
            detail = result.reason.splitlines()[0][:80] if result.reason else ""
        lines.append(
            f"  {instance.instance_id}  {instance.series}"
            f"[{instance.permutation}]"
            f"  {result.status:<7} {detail}".rstrip()
        )
    lines += [
        "",
        f"{counts['ok']} ok, {counts['failed']} failed, "
        f"{counts['skipped']} skipped",
        f"provenance: {len(sweep.world.provenance.for_suite(sweep.spec.name))}"
        f" record(s) carry suite {sweep.spec.name!r}",
    ]
    return "\n".join(lines)


def _attempts_for(sweep: SweepResult, instance) -> int:
    for record in sweep.world.provenance.all():
        if record.stdout_artifact == instance.stdout_artifact:
            return record.task_attempts
    return 0
