"""The composition root: wire every subsystem into one simulated world.

A :class:`World` owns the shared clock, the auth service, the hub, the
FaaS cloud, the runner pool, the CI engine, the provenance store, the
container registry, and lazily-built sites from the catalog. Experiments,
examples, and integration tests construct a ``World`` and script against
it — the equivalent of "the internet plus four allocations" in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.actions.engine import Engine, EngineServices
from repro.actions.runner import RunnerPool
from repro.auth.identity import Identity, IdentityProvider
from repro.auth.oauth import AuthService
from repro.auth.policies import HighAssurancePolicy
from repro.containers.registry import ContainerRegistry
from repro.core.action import publish_correct
from repro.envs.stdlib import standard_index
from repro.faas.endpoint import EndpointTemplate, MultiUserEndpoint, UserEndpoint
from repro.faas.service import FaaSService
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.resilience import BreakerPolicy, RetryPolicy
from repro.hub.archive import PermanentArchive
from repro.hub.service import HubService
from repro.provenance.store import ProvenanceStore
from repro.shellsim.session import ShellServices
from repro.sites.catalog import SITE_BUILDERS
from repro.sites.site import Site
from repro.telemetry import (
    DEFAULT_BOUNDS,
    DEFAULT_WINDOW,
    NULL_TRACER,
    EventMetricsBridge,
    HealthScorer,
    MetricsRegistry,
    SLOEngine,
    TimeSeriesStore,
    Tracer,
    default_slo_pack,
)
from repro.telemetry.health import DEFAULT_HEALTH_WINDOW
from repro.util.clock import SimClock
from repro.util.events import EventLog


@dataclass
class WorldUser:
    """One human in the world: federated identity + hub login + credentials."""

    login: str
    identity: Identity
    client_id: str
    client_secret: str
    site_accounts: Dict[str, str] = field(default_factory=dict)


class World:
    """Everything the paper's evaluation environment contains."""

    def __init__(
        self,
        start_time: float = 0.0,
        concurrent_jobs: bool = False,
        telemetry: bool = True,
        span_sampler: Optional[Any] = None,
        faults: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        offline_policy: str = "raise",
        placement_policy: str = "pinned",
        streaming_metrics: bool = False,
        overload=None,
        hedge=None,
    ) -> None:
        self.clock = SimClock(start_time)
        self.events = EventLog()
        # Telemetry observes the world; it never advances the clock, so
        # experiment outputs are identical with it on or off. The tracer
        # registers itself on the clock (ambient access via tracer_of);
        # the metrics bridge derives instruments purely from EventLog
        # subscriptions — no hot-path coupling.
        # span_sampler (default: sample everything) trims span volume at
        # scale without touching events or metrics.
        # streaming_metrics switches every registry histogram to fixed
        # buckets (bounded memory for long overload/hedging runs; figure
        # runs keep the exact default).
        histogram_bounds = DEFAULT_BOUNDS if streaming_metrics else None
        if telemetry:
            self.tracer = Tracer(self.clock, sampler=span_sampler)
            self.metrics = MetricsRegistry(histogram_bounds=histogram_bounds)
            self.telemetry_bridge = EventMetricsBridge(self.metrics, self.events)
        else:
            self.tracer = NULL_TRACER
            self.metrics = MetricsRegistry(histogram_bounds=histogram_bounds)
            self.telemetry_bridge = None
        # observability plane: populated by enable_observability()
        self.series: Optional[TimeSeriesStore] = None
        self.slo: Optional[SLOEngine] = None
        self.health: Optional[HealthScorer] = None
        self.package_index = standard_index()
        self.container_registry = ContainerRegistry("ghcr.io")
        self.auth = AuthService(self.clock)
        self.idp = IdentityProvider("uni.example.edu")
        self.hub = HubService(self.clock, events=self.events)
        self.faas = FaaSService(
            self.clock, self.auth, events=self.events,
            retry_policy=retry_policy, breaker=breaker,
            offline_policy=offline_policy,
            placement_policy=placement_policy,
            overload=overload,
            hedge=hedge,
        )
        self.provenance = ProvenanceStore()
        self.archive = PermanentArchive(self.clock)
        self.runner_pool = RunnerPool(self.clock, package_index=self.package_index)
        self.services = EngineServices(
            faas=self.faas,
            auth=self.auth,
            image_commands={},
            provenance=self.provenance,
            archive=self.archive,
        )
        self.engine = Engine(
            self.hub,
            self.runner_pool,
            services=self.services,
            events=self.events,
            concurrent_jobs=concurrent_jobs,
        )
        publish_correct(self.hub.marketplace)
        self.sites: Dict[str, Site] = {}
        self.users: Dict[str, WorldUser] = {}
        # fault injection: install stores the plan; arm_faults() schedules
        # it relative to *that* moment, so setup (site provisioning, CI
        # wiring) happens fault-free and fault times mean "into the run"
        self.fault_injector: Optional[FaultInjector] = None
        # durability: populated by attach_journal / resume_from
        self.journal = None
        self.checkpointer = None
        self.resumed_from = ""
        self.crash_point: Optional[int] = None
        if faults is not None:
            self.install_faults(faults)

    # -- observability ------------------------------------------------------------
    def enable_observability(
        self,
        window: float = DEFAULT_WINDOW,
        rules=None,
        health_window: float = DEFAULT_HEALTH_WINDOW,
        health_routing: bool = False,
    ) -> TimeSeriesStore:
        """Attach the continuous-observability plane to this world.

        Creates a windowed :class:`TimeSeriesStore` fed by the metrics
        bridge, installs an :class:`SLOEngine` evaluating ``rules``
        (the :func:`default_slo_pack` for the store's window unless
        given) at bucket boundaries, and builds a :class:`HealthScorer`
        over the same store. ``health_routing=True`` additionally lets
        the ``least-loaded`` placement policy break queue-depth ties by
        health score.

        Purely observational unless ``health_routing`` is set: the
        plane reads events and emits ``slo`` alert events, but never
        advances the clock — a world that enables it and never queries
        it produces byte-identical figure outputs. Call before the
        workload runs; telemetry must be enabled.
        """
        if self.telemetry_bridge is None:
            raise ValueError(
                "observability requires telemetry; "
                "construct World(telemetry=True)"
            )
        if self.series is not None:
            raise ValueError("observability is already enabled")
        self.series = TimeSeriesStore(window=window)
        self.telemetry_bridge.attach_series(self.series)
        if rules is None:
            rules = default_slo_pack(window)
        self.slo = SLOEngine(self.series, self.events, list(rules)).install()
        self.health = HealthScorer(self.series, window=health_window)
        # the overload plane's AIMD limiter reads dispatch p95 from the
        # same store (no-op when the plane is off)
        self.faas.attach_overload_series(self.series)
        # fail-slow plane: the straggler detector's gray score is the
        # only health signal a slow-but-succeeding endpoint produces
        if self.faas.hedging is not None:
            self.health.gray_of = self.faas.hedging.gray_of
        if health_routing:
            self.faas.attach_health(self.health)
        return self.series

    # -- durability ---------------------------------------------------------------
    def attach_journal(self, journal=None):
        """Start journaling this world's lifecycle events.

        Returns the :class:`~repro.durability.journal.Journal` (a fresh
        in-memory one unless provided). Attaching is opt-in and purely
        observational: an unjournaled world is byte-identical.
        """
        from repro.durability import Journal, RunCheckpointer

        if self.checkpointer is not None:
            raise ValueError("a journal is already attached to this world")
        self.journal = journal if journal is not None else Journal()
        self.checkpointer = RunCheckpointer(
            self.journal, self.events, faas=self.faas
        )
        self.faas.attach_journal(self.journal)
        return self.journal

    def resume_from(self, journal):
        """Recover from a crashed run's journal.

        The world must be *fresh* (same construction parameters as the
        crashed one). Journaled-complete tasks and plain ``run:`` steps are
        replayed from their records instead of re-executing; endpoints whose
        lease had expired at the crash are marked dead on registration.
        """
        from repro.durability import ReplayIndex

        index = ReplayIndex(journal)
        self.faas.enable_replay(index)
        self.engine.resume_run(journal)
        self.resumed_from = index.head_hash
        self.crash_point = index.crash_record
        self.events.emit(
            self.clock.now, "durability", "run.resumed",
            journal_head=index.head_hash,
            crash_record=index.crash_record,
            completed_tasks=len(index.completed_success()),
            orphans=len(index.orphans()),
        )
        return index

    # -- faults -------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Attach a fault plan to this world (not yet armed)."""
        self.fault_injector = FaultInjector(self, plan)
        return self.fault_injector

    def arm_faults(self) -> FaultInjector:
        """Arm the installed plan: faults fire relative to the current time."""
        if self.fault_injector is None:
            raise ValueError("no fault plan installed; pass World(faults=...)")
        self.fault_injector.arm()
        return self.fault_injector

    # -- sites -------------------------------------------------------------------
    def site(self, name: str, background_load: bool = True) -> Site:
        """Build (or return) a catalog site sharing this world's services."""
        if name not in self.sites:
            builder = SITE_BUILDERS.get(name)
            if builder is None:
                raise ValueError(
                    f"unknown site {name!r}; choices: {sorted(SITE_BUILDERS)}"
                )
            self.sites[name] = builder(
                self.clock,
                package_index=self.package_index,
                container_registries=[self.container_registry],
                events=self.events,
                background_load=background_load,
            )
        return self.sites[name]

    def add_site(self, site: Site) -> Site:
        self.sites[site.name] = site
        return site

    # -- people -------------------------------------------------------------------
    def register_user(
        self,
        login: str,
        site_accounts: Optional[Dict[str, str]] = None,
    ) -> WorldUser:
        """Create identity + hub account + client credentials + site accounts.

        ``site_accounts`` maps site name → local account name; accounts and
        identity mappings are created on each site.
        """
        identity = self.idp.register(login)
        self.hub.create_user(login, identity_urn=identity.urn)
        client_id, client_secret = self.auth.create_client(
            identity, name=f"{login}-correct"
        )
        user = WorldUser(
            login=login,
            identity=identity,
            client_id=client_id,
            client_secret=client_secret,
        )
        for site_name, account in (site_accounts or {}).items():
            self.map_user_to_site(user, site_name, account)
        self.users[login] = user
        return user

    def map_user_to_site(self, user: WorldUser, site_name: str, account: str) -> None:
        site = self.site(site_name)
        site.add_account(account)
        site.identity_map.add(user.identity, account)
        user.site_accounts[site_name] = account

    # -- endpoints ------------------------------------------------------------------
    def shell_services(self) -> ShellServices:
        # the live dict is shared, so image commands registered later
        # (e.g. by an application module) reach already-deployed endpoints
        return ShellServices(
            hub=self.hub, image_commands=self.services.image_commands
        )

    def deploy_mep(
        self,
        site_name: str,
        templates: Optional[Dict[str, EndpointTemplate]] = None,
        policy: Optional[HighAssurancePolicy] = None,
        instance: str = "",
    ) -> MultiUserEndpoint:
        """Deploy and register a multi-user endpoint at a site.

        ``instance`` names one member of a multi-endpoint pool; the empty
        default keeps the site's historical singleton endpoint id.
        """
        mep = MultiUserEndpoint(
            site=self.site(site_name),
            shell_services=self.shell_services(),
            templates=templates,
            policy=policy,
            instance=instance,
        )
        self.faas.register_endpoint(mep)
        return mep

    def deploy_mep_pool(
        self,
        site_name: str,
        size: int,
        templates: Optional[Dict[str, EndpointTemplate]] = None,
        policy: Optional[HighAssurancePolicy] = None,
        pool_name: str = "",
    ) -> List[MultiUserEndpoint]:
        """Deploy ``size`` MEPs at a site and register them as a pool.

        The first member keeps the site's historical singleton endpoint
        id (instance ""), so a pool of one is byte-identical to a plain
        :meth:`deploy_mep`. Tasks submitted to the pool name — or to the
        site name — are routed by the FaaS service's placement policy.
        """
        meps = [
            self.deploy_mep(
                site_name, templates=templates, policy=policy,
                instance="" if i == 0 else f"pool-{i}",
            )
            for i in range(size)
        ]
        self.faas.register_pool(
            pool_name or site_name, site=site_name,
            members=[mep.endpoint_id for mep in meps],
        )
        return meps

    def deploy_user_endpoint(
        self,
        user: WorldUser,
        site_name: str,
        template: Optional[EndpointTemplate] = None,
    ) -> UserEndpoint:
        """Deploy a single-user endpoint for a user's site account."""
        site = self.site(site_name)
        account = user.site_accounts.get(site_name)
        if account is None:
            raise ValueError(f"{user.login} has no account at {site_name}")
        uep = UserEndpoint(
            site=site,
            local_user=account,
            shell_services=self.shell_services(),
            template=template,
            owner=user.identity,
        )
        self.faas.register_endpoint(uep)
        return uep

    def register_image_command(self, name: str, impl) -> None:
        """Register a container-provided command implementation globally."""
        self.services.image_commands[name] = impl
