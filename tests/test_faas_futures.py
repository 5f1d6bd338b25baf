"""The async task lifecycle: futures, batches, dispatch interleaving."""

import random
import time

import pytest

from repro.errors import TaskFailed
from repro.executor.pilot import PilotExecutor
from repro.executor.providers import SlurmProvider
from repro.experiments import common
from repro.experiments.fig4_parsldock import run_fig4_overlap
from repro.faas import BatchRequest
from repro.faas.client import ComputeClient
from repro.faas.future import Future
from repro.faas.task import TaskState
from repro.scheduler.jobs import Job
from repro.telemetry import percentile
from repro.world import World


@pytest.fixture
def two_endpoints(quiet_world):
    """A client plus MEPs on two sites with different network latencies."""
    world = quiet_world
    user = world.register_user(
        "alice", {"chameleon": "cc", "faster": "x-alice"}
    )
    ep_a = common.deploy_site_mep(world, "chameleon")
    ep_b = common.deploy_site_mep(world, "faster", login_only=True)
    client = ComputeClient(world.faas, user.client_id, user.client_secret)
    return world, client, ep_a.endpoint_id, ep_b.endpoint_id


def _work(fctx, seconds):
    fctx.handle.compute(seconds)
    return seconds


class TestTaskFuture:
    def test_submit_returns_pending_future(self, two_endpoints):
        world, client, ep_a, _ = two_endpoints
        fid = client.register_function(lambda fctx: 42, "answer")
        future = client.submit(ep_a, fid)
        assert not future.done()
        task = world.faas.get_task(future.task_id)
        assert task.state is TaskState.PENDING
        assert future.result() == 42
        assert future.done()
        assert world.faas.get_task(future.task_id).state is TaskState.SUCCESS

    def test_completion_order_across_endpoints(self, two_endpoints):
        world, client, ep_a, ep_b = two_endpoints
        fid = client.register_function(_work, "work")
        order = []
        slow = client.submit(ep_a, fid, 30.0)
        slow.add_done_callback(lambda f: order.append("slow"))
        fast = client.submit(ep_b, fid, 5.0)
        fast.add_done_callback(lambda f: order.append("fast"))
        assert order == []  # nothing ran yet: submission is enqueue-only
        slow.wait()
        # the short task on the other endpoint finished first in virtual
        # time even though it was submitted second
        assert order == ["fast", "slow"]
        assert fast.result() == 5.0

    def test_batch_results_in_request_order(self, two_endpoints):
        world, client, ep_a, ep_b = two_endpoints
        fid = client.register_function(_work, "work")
        futures = client.submit_batch(
            [
                BatchRequest(ep_a, fid, (30.0,)),
                BatchRequest(ep_b, fid, (5.0,)),
                BatchRequest(ep_a, fid, (1.0,)),
            ]
        )
        assert [f.result() for f in futures] == [30.0, 5.0, 1.0]

    def test_same_endpoint_serializes_fifo(self, two_endpoints):
        world, client, ep_a, _ = two_endpoints
        fid = client.register_function(_work, "work")
        first = client.submit(ep_a, fid, 30.0)
        second = client.submit(ep_a, fid, 1.0)
        second.wait()
        # FIFO per endpoint: the short task queued behind the long one
        assert first.done()
        t1 = world.faas.get_task(first.task_id)
        t2 = world.faas.get_task(second.task_id)
        assert t2.started_at >= t1.completed_at

    def test_callback_fires_on_failure(self, two_endpoints):
        world, client, ep_a, _ = two_endpoints

        def boom(fctx):
            raise ValueError("remote kaboom")

        fid = client.register_function(boom, "boom")
        future = client.submit(ep_a, fid)
        seen = []
        future.add_done_callback(lambda f: seen.append(f.exception()))
        future.wait()  # wait() never re-raises; result() does
        assert len(seen) == 1
        assert isinstance(seen[0], TaskFailed)
        assert "remote kaboom" in seen[0].remote_traceback
        with pytest.raises(TaskFailed):
            future.result()

    def test_blocking_wrapper_preserved(self, two_endpoints):
        world, client, ep_a, _ = two_endpoints
        fid = client.register_function(lambda fctx, x: x * 2, "double")
        task_id = client.run(ep_a, fid, 21)
        assert isinstance(task_id, str)
        assert client.get_result(task_id) == 42

    def test_pending_future_without_events_deadlocks(self, world):
        future = Future(world.clock)
        with pytest.raises(TaskFailed, match="deadlock"):
            future.result()


class TestFifoAcrossRetry:
    def test_retried_task_keeps_submission_order_on_endpoint(self):
        """A re-enqueued attempt may not jump behind a later batch.

        Batch 1's task fails once and re-arrives on the endpoint after its
        backoff, while batch 2's tasks are already queued there. The
        dispatcher must re-insert the retried attempt by submission
        sequence — batch 1 still runs before batch 2's trailing task —
        instead of appending it at the tail (the old interleaving bug).
        """
        from repro.faults.plan import FaultPlan, TaskError
        from repro.faults.resilience import RetryPolicy

        world = World(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=2.0, seed=1)
        )
        original = world.site
        world.site = (  # quiet site: no background queue load
            lambda name, background_load=False: original(name, background_load)
        )
        plan = FaultPlan(seed=1).add(
            TaskError(at=0.0, site="chameleon", count=1, transient=True)
        )
        world.install_faults(plan)
        user = world.register_user("alice", {"chameleon": "cc"})
        mep = common.deploy_site_mep(world, "chameleon")
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        world.arm_faults()

        fid = client.register_function(_work, "work")
        # batch 1: one quick task that the armed fault fails once
        (first,) = client.submit_batch([BatchRequest(mep.endpoint_id, fid, (1.0,))])
        # batch 2: a long task (in flight while batch 1 backs off) and a
        # short one queued behind it
        second, third = client.submit_batch(
            [
                BatchRequest(mep.endpoint_id, fid, (30.0,)),
                BatchRequest(mep.endpoint_id, fid, (1.0,)),
            ]
        )
        assert [f.result() for f in (first, second, third)] == [1.0, 30.0, 1.0]

        t1 = world.faas.get_task(first.task_id)
        t2 = world.faas.get_task(second.task_id)
        t3 = world.faas.get_task(third.task_id)
        assert t1.attempts == 2
        # the retried attempt re-entered the queue *ahead* of batch 2's
        # trailing task: completion order matches submission order
        assert t1.completed_at <= t3.started_at
        assert t2.completed_at <= t3.started_at


class TestPilotQueueWaitAccounting:
    def test_queue_wait_recorded_on_reprovision(self):
        """Queue wait of the *second* block (after walltime death) counts."""
        from repro.envs.stdlib import standard_index
        from repro.sites.catalog import make_faster
        from repro.util.clock import SimClock

        site = make_faster(
            SimClock(), package_index=standard_index(), background_load=False
        )
        site.add_account("x-u")

        def saturate():
            site.scheduler.submit(
                Job(
                    user="x-u", partition="normal", num_nodes=16,
                    duration=50.0, walltime=100.0,
                )
            )

        saturate()  # pilot must queue behind a partition-wide filler
        executor = PilotExecutor(
            SlurmProvider(site, "x-u", partition="normal", walltime=120.0)
        )
        executor.submit(lambda handle: handle.compute(1.0))
        first_wait = executor.total_queue_wait
        assert first_wait > 0

        site.clock.advance(300.0)  # pilot dies at its walltime
        saturate()
        executor.submit(lambda handle: handle.compute(1.0))
        assert executor.blocks_started == 2
        assert executor.total_queue_wait > first_wait
        assert executor.total_queue_wait == pytest.approx(first_wait + 50.0)


class TestFig4Overlap:
    def test_makespan_beats_serialized_total(self):
        result = run_fig4_overlap()
        assert result.makespan < result.serialized_total
        assert set(result.per_site_serialized) == {
            "chameleon", "faster", "expanse",
        }
        # per-test durations still come out of the concurrent run
        for site_durations in result.durations.values():
            assert site_durations


def _burst(tasks, endpoints, seed):
    """Submit ``tasks`` seeded 1–3 s tasks round-robin over a pool, drain.

    Returns the drained world, the events pending right after the burst
    was submitted, and the virtual submit-to-dispatch latencies.
    """
    world = World()
    user = world.register_user("burst", {"chameleon": "burst"})
    pool = common.deploy_site_mep_pool(world, "chameleon", size=endpoints)
    client = ComputeClient(world.faas, user.client_id, user.client_secret)
    fid = client.register_function(_work, "burst-work")
    rng = random.Random(seed)
    futures = [
        client.submit(
            pool[index % endpoints].endpoint_id,
            fid,
            2.0 * (0.5 + rng.random()),
        )
        for index in range(tasks)
    ]
    pending = world.clock.pending_events()
    world.clock.run_until_idle()
    assert all(future.done() for future in futures)
    submitted = {
        e.data["task_id"]: e.time
        for e in world.events.query("faas", "task.submitted")
    }
    latencies = [
        e.time - submitted[e.data["task_id"]]
        for e in world.events.query("faas", "task.dispatched")
    ]
    return world, pending, latencies


class TestBurstAtScale:
    def test_100k_burst_completes_fast(self):
        # 100k tasks through submit, dispatch, pilot execution, and
        # completion without event-queue blowup
        started = time.perf_counter()
        world, pending, latencies = _burst(100_000, endpoints=8, seed=42)
        assert time.perf_counter() - started < 60
        assert len(latencies) == 100_000
        # submitted + dispatched + completed per task, plus setup events
        assert len(world.events) >= 300_000
        assert pending > 0
        assert world.clock.now > 0
        assert 0 < percentile(latencies, 50) <= percentile(latencies, 95)

    def test_same_seed_same_virtual_figures(self):
        a, a_pending, a_latencies = _burst(2000, endpoints=4, seed=7)
        b, b_pending, b_latencies = _burst(2000, endpoints=4, seed=7)
        assert a.clock.now == b.clock.now
        assert len(a.events) == len(b.events)
        assert a_pending == b_pending
        assert a_latencies == b_latencies

    def test_seed_changes_workload(self):
        a, _, _ = _burst(500, endpoints=2, seed=1)
        b, _, _ = _burst(500, endpoints=2, seed=2)
        assert a.clock.now != b.clock.now
