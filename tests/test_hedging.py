"""The fail-slow plane: detection, hedging, cancellation, determinism."""

import pytest

from repro.errors import TaskCancelled
from repro.experiments import common
from repro.experiments.hedging import (
    HedgingParams,
    format_hedging_report,
    run_failslow,
    run_fig4_failslow,
)
from repro.faas.client import ComputeClient
from repro.faas.hedging import HedgeConfig, StragglerDetector
from repro.faas.placement import EndpointPool, Router
from repro.faas.task import TaskState
from repro.faults.plan import FaultPlan, PerfDegradation
from repro.telemetry import HealthScorer, TimeSeriesStore
from repro.util.clock import SimClock
from repro.world import World


def _drain(world: World) -> None:
    while world.clock.next_event_time() is not None:
        world.clock.run_until(world.clock.next_event_time())


def _compute(fctx, seconds: float) -> float:
    fctx.handle.compute(seconds)
    return seconds


def _cloud_client(world: World, site: str = "chameleon"):
    user = world.register_user("alice", {site: "cc"})
    mep = common.deploy_site_mep(world, site)
    client = ComputeClient(world.faas, user.client_id, user.client_secret)
    return client, mep.endpoint_id, user


class TestFutureCancel:
    def test_plain_future_cancel_resolves_with_task_cancelled(self):
        from repro.faas.future import Future

        future = Future(SimClock())
        assert future.cancel() is True
        assert future.cancelled()
        with pytest.raises(TaskCancelled):
            future.result()

    def test_cancel_after_resolution_is_refused(self):
        from repro.faas.future import Future

        future = Future(SimClock())
        future.set_result(42)
        assert future.cancel() is False
        assert not future.cancelled()
        assert future.result() == 42

    def test_task_cancel_reaches_terminal_state(self):
        world = World()
        client, eid, _ = _cloud_client(world)
        fid = client.register_function(_compute, "compute")
        future = client.submit(eid, fid, 30.0)
        # cancel while the dispatch event is still on the wire
        assert future.cancel() is True
        assert future.task.state is TaskState.CANCELLED
        assert future.cancelled()
        _drain(world)
        # the in-flight dispatch arrival must not resurrect the task:
        # a terminal (or retracted) entry is dropped at arrive()
        assert future.task.state is TaskState.CANCELLED
        cancelled = world.events.query("faas", "task.cancelled")
        assert len(cancelled) == 1
        assert not world.events.query("faas", "task.completed")

    def test_cancel_terminal_task_returns_false(self):
        world = World()
        client, eid, _ = _cloud_client(world)
        fid = client.register_function(_compute, "compute")
        future = client.submit(eid, fid, 1.0)
        assert future.result() == 1.0
        assert future.cancel() is False
        assert future.task.state is TaskState.SUCCESS


class TestPerfDegradation:
    def _run(self, plan):
        world = World(faults=plan)
        client, eid, _ = _cloud_client(world)
        fid = client.register_function(_compute, "compute")
        if plan is not None:
            world.arm_faults()
        future = client.submit(eid, fid, 10.0)
        assert future.result() == 10.0
        task = future.task
        return world, task.completed_at - task.started_at

    def test_degraded_window_stretches_service_time(self):
        baseline_world, baseline = self._run(None)
        plan = FaultPlan(seed=1).add(
            PerfDegradation(
                at=0.0, site="chameleon", duration=500.0, multiplier=4.0,
            )
        )
        degraded_world, stretched = self._run(plan)
        assert stretched == pytest.approx(4.0 * baseline, rel=1e-6)
        # fail-slow is silent: the task succeeded, nothing retried
        assert not degraded_world.events.query("faas", "task.retry")
        assert degraded_world.events.query("fault", "perf.degraded")

    def test_multiplier_restores_after_the_window(self):
        from repro.faults.injector import injector_of

        plan = FaultPlan(seed=1).add(
            PerfDegradation(
                at=5.0, site="chameleon", duration=20.0, multiplier=3.0,
            )
        )
        world = World(faults=plan)
        _, eid, _ = _cloud_client(world)
        world.arm_faults()
        injector = injector_of(world.clock)
        assert injector.service_multiplier(eid) == 1.0
        world.clock.run_until(10.0)
        assert injector.service_multiplier(eid) == 3.0
        world.clock.run_until(30.0)
        assert injector.service_multiplier(eid) == 1.0


class TestStragglerDetector:
    def _loaded(self):
        detector = StragglerDetector(
            window=600.0, flag_ratio=2.0, min_samples=5
        )
        for i in range(6):
            detector.record("gray", 40.0, float(i))
            detector.record("b", 10.0, float(i))
            detector.record("c", 10.0, float(i))
        return detector

    def test_divergent_member_is_flagged(self):
        detector = self._loaded()
        assert detector.flagged("gray", 10.0)
        assert not detector.flagged("b", 10.0)
        assert detector.ratio("gray", 10.0) == pytest.approx(4.0)

    def test_gray_score_is_clamped_and_relative(self):
        detector = self._loaded()
        assert detector.gray_score("gray", 10.0) == 1.0
        assert detector.gray_score("b", 10.0) == 0.0
        # unseen endpoints have no evidence: not gray
        assert detector.gray_score("new", 10.0) == 0.0

    def test_uniformly_slow_pool_is_not_gray(self):
        detector = StragglerDetector(min_samples=2)
        for i in range(4):
            detector.record("a", 50.0, float(i))
            detector.record("b", 50.0, float(i))
        assert not detector.flagged("a", 5.0)
        assert detector.gray_score("a", 5.0) == 0.0

    def test_window_pruning_forgets_old_samples(self):
        detector = StragglerDetector(window=100.0, min_samples=3)
        for i in range(5):
            detector.record("a", 10.0, float(i))
        assert detector.p95("a", 50.0) is not None
        assert detector.p95("a", 500.0) is None

    def test_flag_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            StragglerDetector(flag_ratio=1.0)


class TestGrayHealthRouting:
    def test_gray_score_scales_health(self):
        scorer = HealthScorer(TimeSeriesStore(window=60.0))
        assert scorer.score("e", 100.0) == 1.0
        scorer.gray_of = lambda endpoint, now: 0.75
        assert scorer.score("e", 100.0) == pytest.approx(0.25)

    def test_degraded_member_stops_winning_ties(self):
        # registration order favors "gray"; equal depth everywhere
        depths = {"gray": 1, "b": 1, "c": 1}
        health = {"gray": 0.0, "b": 1.0, "c": 1.0}
        router = Router(
            queue_depth=lambda eid: depths[eid],
            admissible=lambda eid: True,
            weight_of=lambda eid: 1.0,
            policy="least-loaded",
            health_of=health.get,
        )
        pool = EndpointPool(name="p", site="s")
        for eid in ("gray", "b", "c"):
            pool.add(eid)
        router.register_pool(pool)
        assert router.resolve("p").endpoint_id == "b"


QUICK = HedgingParams()


@pytest.fixture(scope="module")
def comparison():
    return run_fig4_failslow(QUICK)


class TestFailSlowComparison:
    def test_p99_cut_meets_the_gate(self, comparison):
        assert comparison.hedged.p99 < comparison.unhedged.p99
        assert comparison.p99_cut >= 0.30

    def test_wasted_work_is_bounded(self, comparison):
        assert comparison.hedged.wasted_ratio <= 0.10

    def test_hedges_fire_and_win(self, comparison):
        on = comparison.hedged
        assert on.hedges_launched > 0
        assert on.hedges_won > 0
        assert on.stragglers_flagged >= 1
        off = comparison.unhedged
        assert off.hedges_launched == 0
        assert off.world.faas.hedging is None

    def test_fault_free_run_is_quiescent(self, comparison):
        quiet = comparison.fault_free
        assert quiet.hedges_launched == 0
        assert quiet.wasted_seconds == 0.0
        assert quiet.stragglers_flagged == 0

    def test_exactly_once_audit_is_clean(self, comparison):
        for run in (
            comparison.unhedged, comparison.hedged, comparison.fault_free
        ):
            assert run.double_resolutions == 0
            assert run.unresolved_futures == 0
            assert run.completed == run.submitted

    def test_hedge_win_carries_provenance_on_the_task(self, comparison):
        world = comparison.hedged.world
        user_urn = next(iter(world.faas._tasks.values())).identity_urn
        winners = [
            t for t in world.faas.tasks_for(user_urn)
            if getattr(t, "hedge_won", False)
        ]
        assert len(winners) == comparison.hedged.hedges_won
        for task in winners:
            assert task.hedged
            assert task.loser_endpoint
            assert task.loser_endpoint != task.endpoint_id
            assert task.state is TaskState.SUCCESS

    def test_same_seed_replays_the_same_defended_run(self, comparison):
        replay = run_failslow(QUICK, hedged=True)
        hedged = comparison.hedged
        assert (replay.p50, replay.p95, replay.p99) == (
            hedged.p50, hedged.p95, hedged.p99
        )
        assert replay.hedges_launched == hedged.hedges_launched
        assert replay.hedges_won == hedged.hedges_won
        assert replay.wasted_seconds == hedged.wasted_seconds
        first = [
            (e.time, e.kind) for e in hedged.world.events.query("faas")
        ]
        second = [
            (e.time, e.kind) for e in replay.world.events.query("faas")
        ]
        assert first == second

    def test_report_is_deterministic_text(self, comparison):
        report = format_hedging_report(comparison)
        assert "p99 cut:" in report
        assert "hedges on fault-free run: 0" in report
        assert "double resolutions: 0" in report


class TestHedgeConfigOffByDefault:
    def test_world_without_config_has_no_controller(self):
        world = World()
        assert world.faas.hedging is None

    def test_world_with_config_builds_controller(self):
        world = World(hedge=HedgeConfig())
        assert world.faas.hedging is not None
        assert world.faas.hedging.config.factor == 1.5


class TestExecutionRecordHedgeProvenance:
    def test_hedge_fields_round_trip(self):
        from repro.provenance.record import ExecutionRecord

        record = ExecutionRecord(
            record_id="r1", run_id="manual", repo_slug="o/r",
            commit_sha="abc", site="chameleon", endpoint_id="winner",
            identity_urn="urn:u", function_name="f", command="f()",
            started_at=1.0, completed_at=2.0, exit_code=0,
            hedged=True, hedge_won=True, loser_endpoint="loser",
        )
        loaded = ExecutionRecord.from_json(record.to_json())
        assert loaded.hedged and loaded.hedge_won
        assert loaded.loser_endpoint == "loser"

    def test_hedge_fields_default_off(self):
        from repro.provenance.record import ExecutionRecord

        record = ExecutionRecord(
            record_id="r1", run_id="manual", repo_slug="o/r",
            commit_sha="abc", site="chameleon", endpoint_id="e",
            identity_urn="urn:u", function_name="f", command="f()",
            started_at=1.0, completed_at=2.0, exit_code=0,
        )
        assert not record.hedged
        assert not record.hedge_won
        assert record.loser_endpoint == ""


class TestHedgeCLI:
    def test_hedge_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["hedge", "fig4", "--seed", "9", "--profile", "none"]
        )
        assert args.command == "hedge"
        assert args.seed == 9
        assert args.profile == "none"

    def test_chaos_accepts_fail_slow_profile(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["chaos", "fig4", "--profile", "fail-slow"]
        )
        assert args.profile == "fail-slow"
