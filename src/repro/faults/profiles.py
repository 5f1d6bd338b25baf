"""Named chaos profiles: seed → FaultPlan generators.

Each profile models one of the HPC failure modes the paper (and Gamblin &
Katz) name as defining obstacles for CI on real machines. All randomness
flows through ``random.Random(seed)``, so a profile + seed pair is a
complete, replayable description of a chaotic run — the CLI's
``python -m repro chaos fig4 --seed 7 --profile flaky-endpoint``.

Profiles target the Fig. 4 sites by default; the experiment harness tells
the profile which site is "victim" and which is "hard-down".
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from repro.faults.plan import (
    EndpointOutage,
    FaultPlan,
    NetworkDelay,
    NetworkPartition,
    PerfDegradation,
    TaskError,
    FaultPlan as _FaultPlan,  # noqa: F401 - re-export convenience
    WalltimeKill,
)

# the Fig. 4 role assignment every profile shares: one site flaps, one
# site (optionally) goes down hard, the rest stay healthy
FLAKY_SITE = "faster"
DOWN_SITE = "expanse"


def flaky_endpoint(seed: int) -> FaultPlan:
    """Endpoint instability: short offline windows plus a hard crash.

    The flaky site's endpoints drop out two-to-four times for 15–45 s
    early in the run — long enough to catch tasks in flight, short enough
    that backoff retries succeed. The hard-down site crashes permanently
    a few seconds in, so its tasks exhaust retries, trip the circuit
    breaker, and the run degrades to a per-site partial result.
    """
    rng = random.Random(seed)
    plan = FaultPlan(seed=seed, profile="flaky-endpoint")
    start = rng.uniform(2.0, 6.0)
    for _ in range(rng.randint(2, 4)):
        duration = rng.uniform(15.0, 45.0)
        plan.add(EndpointOutage(at=start, site=FLAKY_SITE, duration=duration))
        start += duration + rng.uniform(30.0, 90.0)
    plan.add(
        EndpointOutage(
            at=rng.uniform(1.0, 4.0), site=DOWN_SITE, duration=float("inf")
        )
    )
    # a couple of one-shot execution errors on the flaky site, to exercise
    # the retry path even when the window misses the task
    plan.add(
        TaskError(
            at=0.0, site=FLAKY_SITE, count=rng.randint(1, 2),
            transient=True, message="injected transient executor fault",
        )
    )
    return plan


def walltime(seed: int) -> FaultPlan:
    """Walltime kills: the pilot dies under the payload, twice.

    Timed to land while Fig. 4's test tasks occupy the flaky site's
    compute block; the executor detects the dead block, the task fails
    with ``WalltimeExceeded`` (transient), and the retry pays a second
    queue wait on a fresh pilot — the dead-block re-provision path.
    """
    rng = random.Random(seed)
    plan = FaultPlan(seed=seed, profile="walltime")
    first = rng.uniform(200.0, 400.0)
    plan.add(WalltimeKill(at=first, site=FLAKY_SITE))
    plan.add(WalltimeKill(at=first + rng.uniform(300.0, 600.0), site=FLAKY_SITE))
    return plan


def partition(seed: int) -> FaultPlan:
    """Network trouble: a latency bump, then a full partition window.

    The cloud loses the flaky site for 60–120 s; dispatches during the
    window fail with ``NetworkPartitioned`` and back off until the
    network heals. A milder delay window on the hard-down site stretches
    control-plane latency without failing anything.
    """
    rng = random.Random(seed)
    plan = FaultPlan(seed=seed, profile="partition")
    plan.add(
        NetworkPartition(
            at=rng.uniform(3.0, 10.0), site=FLAKY_SITE,
            duration=rng.uniform(60.0, 120.0),
        )
    )
    # a second window deeper into the run, timed to overlap the flaky
    # site's own CI job when jobs execute sequentially
    plan.add(
        NetworkPartition(
            at=rng.uniform(120.0, 240.0), site=FLAKY_SITE,
            duration=rng.uniform(60.0, 120.0),
        )
    )
    plan.add(
        NetworkDelay(
            at=rng.uniform(1.0, 5.0), site=DOWN_SITE,
            duration=rng.uniform(120.0, 240.0),
            extra_latency=rng.uniform(0.5, 2.0),
        )
    )
    return plan


# the multi-tenant overload experiment runs everything on one pooled site
OVERLOAD_SITE = "chameleon"


def overload(seed: int) -> FaultPlan:
    """Capacity stress for the multi-tenant overload experiment.

    Models a shared facility degrading under load rather than failing
    outright: bursts of transient executor faults (the retry-budget's
    adversary — each burst tempts every affected tenant into retrying at
    once), one short full-pool blackout while the hot tenant floods the
    queue, and a control-plane latency bump that stretches every
    dispatch round trip. Against the same seed the protected and
    unprotected runs see the exact same faults, so the goodput gap is
    attributable to the protection plane alone.
    """
    rng = random.Random(seed)
    plan = FaultPlan(seed=seed, profile="overload")
    start = rng.uniform(30.0, 60.0)
    for _ in range(rng.randint(3, 5)):
        plan.add(
            TaskError(
                at=start, site=OVERLOAD_SITE, count=rng.randint(6, 12),
                transient=True, message="injected overload executor fault",
            )
        )
        start += rng.uniform(90.0, 180.0)
    plan.add(
        EndpointOutage(
            at=rng.uniform(180.0, 260.0), site=OVERLOAD_SITE,
            duration=rng.uniform(25.0, 45.0),
        )
    )
    plan.add(
        NetworkDelay(
            at=rng.uniform(60.0, 120.0), site=OVERLOAD_SITE,
            duration=rng.uniform(120.0, 240.0),
            extra_latency=rng.uniform(0.4, 1.0),
        )
    )
    return plan


def fail_slow(seed: int) -> FaultPlan:
    """Gray failure: one pool member stays alive but runs several-x slow.

    The defining fail-slow property is that *nothing else notices*: the
    endpoint accepts work, tasks succeed, the breaker never trips — only
    tail latency explodes. Two or three long degradation windows land on
    member 1 of the pooled site (member 0 keeps the historic singleton
    id; on a singleton site the member index clamps so the sole endpoint
    degrades instead), stretching its service times 3–6x for most of the
    run. This is the profile the straggler detector and the hedge
    interceptor are built against.
    """
    rng = random.Random(seed)
    plan = FaultPlan(seed=seed, profile="fail-slow")
    start = rng.uniform(20.0, 60.0)
    for _ in range(rng.randint(2, 3)):
        duration = rng.uniform(500.0, 900.0)
        plan.add(
            PerfDegradation(
                at=start, site=OVERLOAD_SITE, duration=duration,
                multiplier=rng.uniform(3.0, 6.0), member=1,
            )
        )
        start += duration + rng.uniform(60.0, 180.0)
    return plan


# profile values meaning "no faults": the run gets no fault plan
FAULT_FREE_PROFILES = ("none", "off")

PROFILES: Dict[str, Callable[[int], FaultPlan]] = {
    "flaky-endpoint": flaky_endpoint,
    "walltime": walltime,
    "partition": partition,
    "overload": overload,
    "fail-slow": fail_slow,
}


def build_profile(name: str, seed: int) -> FaultPlan:
    """Build the named profile's plan for ``seed``."""
    builder = PROFILES.get(name)
    if builder is None:
        raise ValueError(
            f"unknown chaos profile {name!r}; choices: {sorted(PROFILES)}"
        )
    return builder(seed)
