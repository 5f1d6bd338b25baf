"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it wraps the public entry points of
each ``repro.<package>`` layer with a span recorder before the traced
world is built, and restores them afterwards. Two more hooks attribute
the event loop's work: every callback handed to ``SimClock.call_at``
and every ``EventLog`` subscriber is wrapped at registration time and
charged to the layer that defined it, so a dispatch pump scheduled on
the clock counts as ``faas`` rather than as clock overhead.

A span is ``(name, start, end, parent, trace id)``. Spans nest on the
host stack (the simulator is single-threaded), so a span's self time is
its duration minus the durations of its direct children. Unwrapped code
is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
import os
import pstats
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# the reported layers, by ``repro.<package>`` name
LAYERS = (
    "suites", "hub", "vcs", "actions", "core", "auth", "faas",
    "faas.overload", "executor", "scheduler", "shellsim", "apps", "sites",
    "telemetry", "provenance", "durability", "util",
)

# public entry points per module: "Class.method" or "function"; "*"
# wraps every public function and method the module defines
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "repro.suites.runner": ("prepare_suite", "execute_suite"),
    "repro.suites.spec": ("load_suite",),
    "repro.suites.resolver": ("materialize", "build_workflow_builder"),
    "repro.suites.parsers": ("*",),
    "repro.hub.service": (
        "HubService.push_commit", "HubService.create_repo",
        "HubService.create_user", "HubService.repo",
    ),
    "repro.hub.artifacts": ("ArtifactStore.upload", "ArtifactStore.download"),
    "repro.hub.marketplace": ("*",),
    "repro.hub.quotas": ("*",),
    "repro.vcs.repository": (
        "Repository.commit", "Repository.files_at", "Repository.read_file",
        "Repository.resolve", "Repository.head",
    ),
    "repro.vcs.remote": ("clone",),
    "repro.actions.engine": (
        "Engine.handle_event", "Engine.process", "Engine.approve",
    ),
    "repro.actions.workflow": ("parse_workflow", "Workflow.matches"),
    "repro.actions.expressions": ("*",),
    "repro.actions.runner": ("RunnerPool.acquire", "Runner.shell"),
    "repro.actions.builtin_actions": ("*",),
    "repro.core.action": ("CorrectAction.run", "CorrectAction.run_async"),
    "repro.core.driver": ("execute_correct_async", "register_helpers"),
    "repro.core.remote": ("*",),
    "repro.auth.oauth": (
        "AuthService.client_credentials_grant", "AuthService.introspect",
        "AuthService.create_client",
    ),
    "repro.auth.policies": ("*",),
    "repro.faas.service": (
        "FaaSService.submit", "FaaSService.submit_batch",
        "FaaSService.register_function", "FaaSService.register_endpoint",
        "FaaSService.get_task", "FaaSService.get_future",
    ),
    "repro.faas.client": ("ComputeClient.submit",),
    "repro.faas.dispatch": ("EndpointDispatcher.arrive", "EndpointDispatcher.pump"),
    "repro.faas.endpoint": (
        "MultiUserEndpoint.execute_async", "UserEndpoint.execute_async",
        "MultiUserEndpoint.user_endpoint",
    ),
    "repro.faas.placement": ("Router.resolve",),
    "repro.faas.future": ("TaskFuture.resolve_from_task",),
    "repro.faas.overload": (
        "OverloadController.check_admission",
        "OverloadController.check_concurrency",
        "OverloadController.check_shed",
        "OverloadController.on_submitted",
        "OverloadController.on_outcome",
        "OverloadController.on_finalize",
    ),
    "repro.executor.pilot": (
        "PilotExecutor.submit_async", "PilotExecutor.submit",
        "PilotExecutor.ensure_block_async",
    ),
    "repro.executor.providers": (
        "SlurmProvider.start_block_async", "LocalProvider.start_block_async",
    ),
    "repro.scheduler.slurm": (
        "SlurmScheduler.submit", "SlurmScheduler.complete",
        "SlurmScheduler.notify_start", "SlurmScheduler.notify_end",
    ),
    "repro.shellsim.session": ("ShellSession.run",),
    "repro.shellsim.suites": ("TestSuite.run", "format_pytest_output"),
    "repro.apps.parsldock.chemistry": ("*",),
    "repro.apps.parsldock.docking": ("*",),
    "repro.apps.parsldock.ml": ("*",),
    "repro.apps.parsldock.pipeline": ("*",),
    "repro.sites.site": (
        "NodeHandle.compute", "NodeHandle.io", "NodeHandle.fs_write_tree",
        "NodeHandle.fs_read_tree", "Site.login_handle", "Site.compute_handle",
    ),
    "repro.sites.filesystem": ("SimFileSystem.write_tree", "SimFileSystem.read_tree"),
    "repro.telemetry.tracer": (
        "Tracer.start_span", "Tracer.end_span", "Tracer.subtree",
        "Tracer.span_tree", "Tracer.trace", "Tracer.children",
    ),
    "repro.telemetry.metrics": ("MetricsRegistry.summaries",),
    "repro.provenance.store": ("ProvenanceStore.add",),
    "repro.provenance.crate": ("*",),
    "repro.durability.journal": ("Journal.append", "Journal.flush", "Journal.verify"),
    "repro.util.events": ("EventLog.emit", "EventLog.query"),
    "repro.util.clock": ("SimClock.run_until_idle", "SimClock.advance"),
    "repro.util.yamlite": ("*",),
}


def layer_of(module: str) -> str:
    """``repro.faas.overload`` -> ``faas.overload``; ``repro.faas.x`` ->
    ``faas``; anything outside the reported layers -> ``other``."""
    if not module.startswith("repro."):
        return "other"
    parts = module.split(".")
    if len(parts) >= 3 and f"{parts[1]}.{parts[2]}" in LAYERS:
        return f"{parts[1]}.{parts[2]}"
    return parts[1] if parts[1] in LAYERS else "other"


def _callable_origin(fn: Any) -> Tuple[str, str]:
    """(module, qualname) of a scheduled callback or subscriber."""
    target = fn
    while isinstance(target, functools.partial):
        target = target.func
    target = getattr(target, "__func__", target)
    module = getattr(target, "__module__", None) or type(target).__module__
    name = getattr(target, "__qualname__", None) or type(target).__qualname__
    return module, name


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trace = array("l")
        self.trace_id = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._origin_ids: Dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` recording one span per call."""
        nid = self._name_id(name, layer)
        name_of, start, end = self.name_of, self.start, self.end
        parent, trace, stack = self.parent, self.trace, self._stack
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            trace.append(recorder.trace_id)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def _wrap_origin(self, fn: Callable, kind: str) -> Callable:
        key = getattr(getattr(fn, "__func__", fn), "__code__", None) or type(fn)
        nid = self._origin_ids.get(key)
        if nid is None:
            module, qualname = _callable_origin(fn)
            source = getattr(sys.modules.get(module), "__file__", None) or ""
            layer = "bench" if source.startswith(_BENCH_DIR) else layer_of(module)
            nid = self._origin_ids[key] = self._name_id(
                f"{kind}:{module}.{qualname}", layer
            )
        return self.wrap(fn, self.names[nid], self.layers[nid])

    # -- patching -------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def _wrap_attr(self, owner: Any, attr: str, qualname: str, layer: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(self.wrap(raw.__func__, qualname, layer)))
        elif isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(self.wrap(raw.__func__, qualname, layer)))
        elif inspect.isfunction(raw):
            self._set(owner, attr, self.wrap(raw, qualname, layer))
        else:
            raise TypeError(f"{qualname} is not a function ({type(raw).__name__})")

    def _wrap_function(self, module: Any, name: str, layer: str) -> None:
        original = getattr(module, name)
        wrapped = self.wrap(original, f"{module.__name__}.{name}", layer)
        # ``from x import f`` copies live in other modules' namespaces
        for other in list(sys.modules.values()):
            space = getattr(other, "__dict__", None)
            if (
                space is not None
                and getattr(other, "__name__", "").startswith("repro")
                and space.get(name) is original
            ):
                self._set(other, name, wrapped)

    def install(self) -> None:
        """Wrap every boundary, clock callback and event subscriber."""
        for module_name, names in BOUNDARIES.items():
            module = importlib.import_module(module_name)
            layer = layer_of(module_name)
            if names == ("*",):
                names = _public_names(module)
            for name in names:
                owner_name, _, method = name.rpartition(".")
                if owner_name:
                    self._wrap_attr(
                        getattr(module, owner_name), method,
                        f"{module_name}.{name}", layer,
                    )
                else:
                    self._wrap_function(module, name, layer)

        from repro.util.clock import SimClock
        from repro.util.events import EventLog

        recorder = self
        call_at = SimClock.call_at
        subscribe = EventLog.subscribe

        def traced_call_at(clock, when, callback):
            return call_at(clock, when, recorder._wrap_origin(callback, "event"))

        def traced_subscribe(log, callback):
            return subscribe(log, recorder._wrap_origin(callback, "subscriber"))

        self._set(SimClock, "call_at", traced_call_at)
        self._set(EventLog, "subscribe", traced_subscribe)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ---------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` over every recorded span."""
        count = len(self.start)
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child[up] += end[index] - start[index]
        totals: Dict[str, Dict[str, float]] = {}
        layers, name_of = self.layers, self.name_of
        for index in range(count):
            layer = layers[name_of[index]]
            entry = totals.get(layer)
            if entry is None:
                entry = totals[layer] = {"calls": 0, "self_s": 0.0}
            entry["calls"] += 1
            entry["self_s"] += end[index] - start[index] - child[index]
        return totals

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, layer, start, end, parent, trace."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index in range(len(self.start)):
                nid = self.name_of[index]
                out.write(json.dumps([
                    self.names[nid], self.layers[nid],
                    round(self.start[index] - base, 9),
                    round(self.end[index] - base, 9),
                    self.parent[index], self.trace[index],
                ]))
                out.write("\n")


def _public_names(module: Any) -> List[str]:
    """Public functions and methods defined in ``module`` itself."""
    names: List[str] = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            names.append(name)
        elif inspect.isclass(value):
            names.extend(
                f"{name}.{attr}"
                for attr, raw in vars(value).items()
                if not attr.startswith("_")
                and (
                    inspect.isfunction(raw)
                    or isinstance(raw, (staticmethod, classmethod))
                )
            )
    return names


def top_layers(self_seconds: Dict[str, float], count: int = 3) -> List[str]:
    ranked = sorted(
        (layer for layer in LAYERS if self_seconds.get(layer, 0.0) > 0),
        key=lambda layer: -self_seconds[layer],
    )
    return ranked[:count]


def profile_layers(run: Callable[[], Any]) -> Dict[str, float]:
    """Run ``run`` under cProfile; self time grouped by ``repro.<package>``.

    Functions outside ``repro`` (stdlib, numpy) are left out: cProfile
    charges them to themselves, not to the layer that called them.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    totals: Dict[str, float] = {}
    marker = os.sep + "repro" + os.sep
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        at = filename.rfind(marker)
        if at < 0:
            continue
        module = "repro." + filename[at + len(marker):].removesuffix(".py").replace(os.sep, ".")
        layer = layer_of(module.removesuffix(".__init__"))
        totals[layer] = totals.get(layer, 0.0) + row[2]
    return totals


def timed(
    recorder: Optional[SpanRecorder], run: Callable[[], Any]
) -> Tuple[Any, float]:
    """``run()``, traced when a recorder is given; (result, wall s)."""
    if recorder is not None:
        recorder.install()
    try:
        started = perf_counter()
        result = run()
        return result, perf_counter() - started
    finally:
        if recorder is not None:
            recorder.uninstall()
