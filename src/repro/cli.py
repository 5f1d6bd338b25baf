"""Command-line interface: regenerate any paper experiment from a shell.

``python -m repro <experiment>`` runs the corresponding harness and prints
the same rows/series the paper's table or figure reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.experiments import run_fig1

    counts = run_fig1(seed=args.seed)
    rows = [
        [year, c["available"], c["evaluated"], c["reproduced"]]
        for year, c in sorted(counts.items())
    ]
    print("Fig. 1 — reproducibility badges awarded by SC over time\n")
    print(format_table(["year", "available", "evaluated", "reproduced"], rows))
    return 0


def _telemetry_enabled(args: argparse.Namespace) -> bool:
    return not getattr(args, "no_telemetry", False)


def _maybe_print_metrics(args: argparse.Namespace, world) -> None:
    """Print the metrics report when ``--metrics`` was passed."""
    if not getattr(args, "metrics", False) or world is None:
        return
    print("\n== metrics ==")
    if not _telemetry_enabled(args):
        print("(telemetry disabled; no metrics collected)")
        return
    print(world.metrics.report())


def _render_fig4(result) -> int:
    """Print the Fig. 4 report for a ``Fig4Result``; returns exit code."""
    from repro.analysis.tables import format_grouped_bars

    print("Fig. 4 — ParslDock test runtimes on different machines\n")
    groups = {
        test: {site: result.durations[site][test] for site in result.durations}
        for test in result.tests()
    }
    print(format_grouped_bars(groups))
    print("\npilot queue waits:", {
        s: round(w, 1) for s, w in result.queue_waits.items()
    })
    return 0 if result.all_passed() else 1


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments import run_fig4

    result = run_fig4(telemetry=_telemetry_enabled(args))
    code = _render_fig4(result)
    _maybe_print_metrics(args, result.world)
    return code


def _cmd_fig4_overlap(args: argparse.Namespace) -> int:
    from repro.experiments import run_fig4_overlap

    result = run_fig4_overlap(telemetry=_telemetry_enabled(args))
    print("Fig. 4 (async) — multi-site overlap from the deferred lifecycle\n")
    for site, duration in result.per_site_serialized.items():
        print(f"  {site:<12} serialized {duration:8.1f}s")
    print(f"\nserialized total: {result.serialized_total:8.1f}s")
    print(f"concurrent makespan: {result.makespan:8.1f}s")
    print(f"overlap speedup: {result.speedup:.2f}x")
    _maybe_print_metrics(args, result.world)
    return 0 if result.makespan < result.serialized_total else 1


def _render_fig5(result) -> int:
    """Print the Fig. 5 report for a ``Fig5Result``; returns exit code."""
    print("Fig. 5 — PSI/J CI via CORRECT on Anvil\n")
    print(f"run status: {result.run.status}")
    for name, (outcome, duration) in result.tests.items():
        print(f"  {name:<28} {outcome:<7} {duration:8.2f}s")
    print("\nfailing:", sorted(result.failing_tests))
    # the experiment *succeeds* when the run fails with the known bug
    return 0 if result.run_failed else 1


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments import run_fig5

    result = run_fig5(
        telemetry=_telemetry_enabled(args),
        inject_failure=getattr(args, "inject_failure", False),
    )
    code = _render_fig5(result)
    _maybe_print_metrics(args, result.world)
    return code


def _render_exp63(result) -> int:
    """Print the §6.3 report for an ``Exp63Result``; returns exit code."""
    print("§6.3 — KaMPIng artifact evaluation\n")
    for name, verdict in result.verdicts().items():
        print(f"  {name:<24} {'REPRODUCED' if verdict else 'FAILED'}")
    return 0 if result.all_passed else 1


def _cmd_exp63(args: argparse.Namespace) -> int:
    from repro.experiments import run_exp63

    result = run_exp63(telemetry=_telemetry_enabled(args))
    code = _render_exp63(result)
    _maybe_print_metrics(args, result.world)
    return code


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run an experiment under a seeded fault plan with resilience on."""
    telemetry = _telemetry_enabled(args)
    if args.experiment == "fig5":
        from repro.experiments import run_fig5_chaos

        result = run_fig5_chaos(seed=args.seed, telemetry=telemetry)
        print(
            "Chaos Fig. 5 — failing test reproduced by injection "
            "(fixed suite)\n"
        )
        print(f"run status: {result.run.status}")
        for name, (outcome, duration) in result.tests.items():
            print(f"  {name:<28} {outcome:<7} {duration:8.2f}s")
        print("\nfailing:", sorted(result.failing_tests))
        _maybe_print_metrics(args, result.world)
        return 0 if result.run_failed else 1

    from repro.experiments import format_chaos_report, run_fig4_chaos

    result = run_fig4_chaos(
        seed=args.seed, profile=args.profile, telemetry=telemetry
    )
    print(format_chaos_report(result))
    _maybe_print_metrics(args, result.world)
    # graceful degradation succeeded if at least one site reported results
    return 0 if result.sites_ok else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    """Crash an experiment at a journal offset and resume it exactly."""
    import os

    from repro.experiments import (
        format_recovery_report,
        run_fig4_recovery,
        run_fig4_recovery_sweep,
    )

    telemetry = _telemetry_enabled(args)
    if args.sweep:
        results = run_fig4_recovery_sweep(seed=args.seed, telemetry=telemetry)
    else:
        results = [
            run_fig4_recovery(
                crash_at=args.crash_at, seed=args.seed, telemetry=telemetry
            )
        ]
    print(format_recovery_report(results))
    if args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
        base = os.path.join(args.dump_dir, "baseline.txt")
        with open(base, "w", encoding="utf-8") as fh:
            fh.write(results[0].baseline_output + "\n")
        for result in results:
            path = os.path.join(
                args.dump_dir, f"resumed-{result.crash_label}.txt"
            )
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(result.resumed_output + "\n")
        print(f"\nwrote baseline + {len(results)} resumed output(s) "
              f"to {args.dump_dir}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_route(args: argparse.Namespace) -> int:
    """Compare a placement policy against pinned on pooled endpoints."""
    from repro.experiments import format_routing_report, run_fig4_pooled

    comparison = run_fig4_pooled(
        policy=args.policy,
        pool_size=args.pool_size,
        telemetry=_telemetry_enabled(args),
    )
    print(format_routing_report(comparison))
    _maybe_print_metrics(args, comparison.routed.world)
    return 0 if comparison.routed_is_faster else 1


def _cmd_overload(args: argparse.Namespace) -> int:
    """Compare goodput with and without the overload-protection plane."""
    from repro.experiments import (
        OverloadParams,
        format_overload_report,
        run_overload_comparison,
    )

    params = OverloadParams(
        tenants=args.tenants,
        seed=args.seed,
        profile=args.profile,
        endpoints=args.endpoints,
        hot_factor=args.hot_factor,
    )
    comparison = run_overload_comparison(params)
    print(format_overload_report(comparison))
    if args.export:
        from repro.telemetry import openmetrics_text, validate_openmetrics

        world = comparison.protected.world
        text = openmetrics_text(world.metrics, world.series)
        validate_openmetrics(text)
        om_path = f"{args.export}-openmetrics.txt"
        with open(om_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nwrote {om_path}", file=sys.stderr)
    # a fault-free run must not shed a well-behaved workload; a chaotic
    # run succeeds when protection strictly beats no protection
    if comparison.protected.fault_free:
        return 0 if comparison.protected.shed == 0 else 1
    return 0 if comparison.goodput_ratio > 1.0 else 1


def _cmd_hedge(args: argparse.Namespace) -> int:
    """Compare tail latency with and without the fail-slow hedging plane."""
    from repro.experiments import (
        HedgingParams,
        format_hedging_report,
        run_fig4_failslow,
    )
    from repro.faults.profiles import FAULT_FREE_PROFILES

    params = HedgingParams(
        seed=args.seed, profile=args.profile, endpoints=args.endpoints
    )
    comparison = run_fig4_failslow(params)
    print(format_hedging_report(comparison))
    runs = (comparison.unhedged, comparison.hedged, comparison.fault_free)
    audits_ok = (
        comparison.fault_free.hedges_launched == 0
        and all(r.double_resolutions == 0 for r in runs)
        and all(r.unresolved_futures == 0 for r in runs)
    )
    if params.profile in FAULT_FREE_PROFILES:
        # a fault-free comparison only proves quiescence + exactly-once
        return 0 if audits_ok else 1
    return (
        0
        if audits_ok and comparison.hedged.p99 < comparison.unhedged.p99
        else 1
    )


def _cmd_obs(args: argparse.Namespace) -> int:
    """Run Fig. 4 watched by the observability plane; report/export it."""
    import json

    from repro.experiments import (
        format_obs_report,
        parse_slo_overrides,
        run_fig4_obs,
    )
    from repro.telemetry import validate_openmetrics

    try:
        rules = parse_slo_overrides(args.slo, args.window)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_fig4_obs(
        seed=args.seed,
        profile=args.profile,
        window=args.window,
        rules=rules,
        health_routing=args.health_routing,
    )
    print(format_obs_report(result))
    if args.export:
        text = result.openmetrics()
        validate_openmetrics(text)
        om_path = f"{args.export}-openmetrics.txt"
        with open(om_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        dash_path = f"{args.export}-dashboard.json"
        with open(dash_path, "w", encoding="utf-8") as fh:
            json.dump(result.dashboard(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {om_path} and {dash_path}", file=sys.stderr)
    # a fault-free run under the default pack must stay silent; chaos
    # runs succeed by completing (their alerts are the expected signal)
    if result.fault_free and result.alerts_fired:
        return 1
    return 0


TRACEABLE_EXPERIMENTS = ("fig4", "fig5", "exp63")


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run an experiment with telemetry on and export its Chrome trace."""
    from repro.experiments import run_exp63, run_fig4, run_fig5
    from repro.telemetry.export import dumps_chrome_trace, text_report

    runner = {
        "fig4": run_fig4,
        "fig5": run_fig5,
        "exp63": run_exp63,
    }[args.experiment]
    result = runner(telemetry=True)
    world = result.world
    output = args.output or f"{args.experiment}-trace.json"
    text = dumps_chrome_trace(
        world.tracer, world.metrics, include_orphans=args.all_traces
    )
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text)
    tracer = world.tracer
    workflow_roots = [s for s in tracer.roots() if s.kind == "workflow"]
    print(
        f"wrote {output}: {len(tracer.spans)} spans, "
        f"{len(workflow_roots)} workflow trace(s) "
        "(load in Perfetto / chrome://tracing)"
    )
    if args.report:
        print()
        print(text_report(
            tracer, world.metrics,
            title=f"{args.experiment} run report",
            include_orphans=args.all_traces,
        ))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.experiments import (
        table1_rows,
        table2_rows,
        table3_rows,
        table4_rows_and_probes,
    )

    print("Table 1 — science application features important for CI")
    print(format_table(["Characteristic", "Description"], table1_rows()))
    print("\nTable 2 — CI usage in scientific applications")
    print(
        format_table(
            ["", "CI framework", "Compute", "Objective", "Visualization"],
            table2_rows(),
        )
    )
    print("\nTable 3 — characteristics for CI of HPC software")
    print(format_table(["Characteristic", "Description"], table3_rows()))
    print("\nTable 4 — HPC CI frameworks (probes executed)")
    rows, probes = table4_rows_and_probes(include_correct=True)
    print(
        format_table(
            ["Framework", "CI Platform", "Auth", "Site-Specific", "Containers"],
            rows,
        )
    )
    ok = all(
        v for checks in probes.values()
        for k, v in checks.items() if k != "needs_runner_on_hpc"
    )
    print(f"\nall probes demonstrated: {ok}")
    return 0 if ok else 1


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import (
        cron_vs_correct,
        overhead_ablation,
        retention_ablation,
        security_ablation,
    )

    overhead = overhead_ablation()
    print(f"ABL1 pilot amortization: {overhead.amortization_factor:.1f}x")
    security = security_ablation()
    print(f"ABL2 security checks: {sum(security.values())}/{len(security)} hold")
    comparison = cron_vs_correct()
    print(
        "ABL3 staleness after push: "
        f"cron {comparison.cron_staleness_after_push:.0f}s vs "
        f"CORRECT {comparison.correct_staleness_after_push:.0f}s"
    )
    retention = retention_ablation()
    print(f"ABL3 retention checks: {sum(retention.values())}/{len(retention)}")
    from repro.experiments.ablations import cloud_overhead_sweep

    sweep = cloud_overhead_sweep()
    print(
        "ABL4 cloud overhead: "
        + ", ".join(
            f"{o:.1f}s→{lat:.1f}s" for o, lat in sorted(sweep.latencies.items())
        )
        + f" (marginal {sweep.marginal_cost:.2f}s/s)"
    )
    ok = all(security.values()) and all(retention.values())
    return 0 if ok else 1


def _parse_var_overrides(specs: Optional[List[str]]) -> Optional[Dict[str, object]]:
    """``--var k=v`` (or ``k=a,b,c``) strings -> a resolver override map."""
    if not specs:
        return None
    overrides: Dict[str, object] = {}
    for spec in specs:
        key, sep, raw = spec.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"--var expects key=value, got {spec!r}")
        overrides[key.strip()] = raw.split(",") if "," in raw else raw
    return overrides


def _cmd_suite(args: argparse.Namespace) -> int:
    """``repro suite list|show|run`` — the declarative-suite front end."""
    from repro.suites import (
        SuiteError,
        format_suite_report,
        format_sweep_report,
        load_suite,
        materialize,
        run_suite,
        suites_root,
    )

    if args.action == "list":
        root = suites_root()
        paths = sorted(root.glob("*.yaml"))
        if not paths:
            print(f"no suite files in {root}")
            return 1
        for path in paths:
            try:
                spec = load_suite(path)
                mat = materialize(spec)
            except SuiteError as exc:
                print(f"  {path.name:<24} INVALID: {exc}")
                continue
            print(
                f"  {spec.name:<14} {len(mat.instances):>3} instance(s), "
                f"{len(mat.jobs):>2} job(s)  {spec.description}"
            )
        return 0

    try:
        overrides = _parse_var_overrides(getattr(args, "var", None))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "show":
        try:
            spec = load_suite(args.suite)
            mat = materialize(spec, overrides)
        except SuiteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"suite {spec.name} — {spec.description}")
        print(f"workflow: {spec.workflow_name} ({spec.workflow_path})")
        print(f"repo: {spec.repo_slug}")
        print(
            f"{len(mat.instances)} instance(s) "
            f"({len(mat.active)} active, {len(mat.skipped)} skipped), "
            f"{len(mat.jobs)} job(s)"
        )
        print()
        for instance in mat.instances:
            status = "skip" if instance.skipped else "run"
            print(
                f"  {instance.instance_id}  {instance.series}"
                f"[{instance.permutation}]  {status:<4} "
                f"job={instance.job_id} target={instance.target} "
                f"cmd={instance.command!r}"
            )
        return 0

    # action == "run"
    telemetry = _telemetry_enabled(args)
    try:
        if args.permute or args.overload or args.hedge:
            if args.overload:
                from repro.experiments.overload import run_suite_overload

                sweep = run_suite_overload(
                    args.suite, seed=args.seed, profile=args.profile,
                    policy=args.policy, pool_size=args.pool_size,
                )
            elif args.hedge:
                from repro.experiments.hedging import run_suite_failslow

                sweep = run_suite_failslow(
                    args.suite, seed=args.seed, profile=args.profile,
                    policy=args.policy, pool_size=args.pool_size,
                )
            else:
                from repro.suites import run_sweep

                sweep = run_sweep(
                    args.suite, seed=args.seed, profile=args.profile,
                    policy=args.policy, pool_size=args.pool_size,
                    overrides=overrides, telemetry=telemetry,
                )
            print(format_sweep_report(sweep))
            return 0 if sweep.ok else 1
        if args.profile:
            from repro.experiments.chaos import run_suite_chaos

            suite_run = run_suite_chaos(
                args.suite, seed=args.seed, profile=args.profile,
                telemetry=telemetry, overrides=overrides,
            )
        else:
            suite_run = run_suite(
                args.suite, overrides=overrides, telemetry=telemetry,
            )
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = suite_run.spec.report
    if report == "fig4":
        from repro.experiments.fig4_parsldock import fig4_result_from

        _render_fig4(fig4_result_from(suite_run))
    elif report == "fig5":
        from repro.experiments.fig5_psij import fig5_result_from

        _render_fig5(fig5_result_from(suite_run))
    elif report == "exp63":
        from repro.experiments.exp63_kamping import exp63_result_from

        _render_exp63(exp63_result_from(suite_run))
    else:
        print(format_suite_report(suite_run))
    # the suite exit contract: nonzero iff any non-skipped test failed,
    # regardless of which report renderer drew the output
    return 0 if suite_run.ok else 1


COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "fig1": _cmd_fig1,
    "fig4": _cmd_fig4,
    "fig4-overlap": _cmd_fig4_overlap,
    "fig5": _cmd_fig5,
    "exp63": _cmd_exp63,
    "tables": _cmd_tables,
    "ablations": _cmd_ablations,
    "trace": _cmd_trace,
    "chaos": _cmd_chaos,
    "route": _cmd_route,
    "recover": _cmd_recover,
    "obs": _cmd_obs,
    "overload": _cmd_overload,
    "hedge": _cmd_hedge,
    "suite": _cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'Addressing "
            "Reproducibility Challenges in HPC with Continuous Integration' "
            "(SC 2025) from the simulated substrate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("fig1", "badge counts over time (Fig. 1)"),
        ("fig4", "ParslDock multi-site runtimes (Fig. 4)"),
        ("fig4-overlap", "multi-site overlap via the async lifecycle"),
        ("fig5", "PSI/J failure surfacing (Fig. 5)"),
        ("exp63", "KaMPIng artifact evaluation (§6.3)"),
        ("tables", "survey tables 1-4 with executable probes"),
        ("ablations", "overhead, security, cron-vs-CORRECT, retention"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name == "fig1":
            p.add_argument("--seed", type=int, default=2025)
        if name in ("fig4", "fig4-overlap", "fig5", "exp63"):
            p.add_argument(
                "--metrics", action="store_true",
                help="print the telemetry metrics report after the run",
            )
            p.add_argument(
                "--no-telemetry", action="store_true",
                help="run without tracer/metrics (outputs are identical)",
            )
        if name == "fig5":
            p.add_argument(
                "--inject-failure", action="store_true",
                help=(
                    "reproduce the failing test via the fault layer "
                    "against the fixed suite (same artifact either way)"
                ),
            )
    trace = sub.add_parser(
        "trace",
        help="run an experiment and export its Chrome trace JSON",
    )
    trace.add_argument(
        "experiment", choices=["fig4", "fig5", "exp63"],
        help="which experiment to run and trace",
    )
    trace.add_argument(
        "-o", "--output", default="",
        help="output path (default: <experiment>-trace.json)",
    )
    trace.add_argument(
        "--report", action="store_true",
        help="also print the plain-text span/metrics report",
    )
    trace.add_argument(
        "--all-traces", action="store_true",
        help="include non-CI traces (background load, pilots) in the export",
    )
    chaos = sub.add_parser(
        "chaos",
        help="run an experiment under a seeded fault plan (resilience on)",
    )
    chaos.add_argument(
        "experiment", choices=["fig4", "fig5"],
        help="which experiment to run chaotically",
    )
    chaos.add_argument(
        "--seed", type=int, default=7,
        help="fault-plan seed; the same seed replays the same chaos",
    )
    chaos.add_argument(
        "--profile", default="flaky-endpoint",
        choices=["flaky-endpoint", "walltime", "partition", "fail-slow"],
        help="named fault profile (fig4 only)",
    )
    chaos.add_argument(
        "--metrics", action="store_true",
        help="print the telemetry metrics report after the run",
    )
    chaos.add_argument(
        "--no-telemetry", action="store_true",
        help="run without tracer/metrics (outputs are identical)",
    )
    route = sub.add_parser(
        "route",
        help=(
            "run the sharded Fig. 4 on endpoint pools and compare a "
            "placement policy against pinned"
        ),
    )
    route.add_argument(
        "experiment", choices=["fig4"],
        help="which experiment to run pooled",
    )
    route.add_argument(
        "--policy", default="least-loaded",
        choices=["round-robin", "least-loaded", "weighted"],
        help="placement policy to compare against pinned",
    )
    route.add_argument(
        "--pool-size", type=int, default=2,
        help="endpoints deployed per site (default 2)",
    )
    route.add_argument(
        "--metrics", action="store_true",
        help="print the telemetry metrics report after the routed run",
    )
    route.add_argument(
        "--no-telemetry", action="store_true",
        help="run without tracer/metrics (outputs are identical)",
    )
    recover = sub.add_parser(
        "recover",
        help=(
            "crash an experiment at a journal offset, resume from the "
            "write-ahead journal, and diff against the uninterrupted run"
        ),
    )
    recover.add_argument(
        "experiment", choices=["fig4"],
        help="which experiment to crash and recover",
    )
    recover.add_argument(
        "--crash-at", default="mid-execute",
        help=(
            "named crash point (mid-dispatch, mid-execute, between-waves, "
            "after-last) or a 1-based journal record number"
        ),
    )
    recover.add_argument(
        "--seed", type=int, default=0,
        help="world seed (the same seed replays the same run)",
    )
    recover.add_argument(
        "--sweep", action="store_true",
        help="crash + resume at every named point, sharing one baseline",
    )
    recover.add_argument(
        "--dump-dir", default="",
        help="write baseline.txt and resumed-<point>.txt here for diffing",
    )
    recover.add_argument(
        "--no-telemetry", action="store_true",
        help="run without tracer/metrics (outputs are identical)",
    )
    obs = sub.add_parser(
        "obs",
        help=(
            "run an experiment watched by the observability plane: "
            "windowed series, SLO alerts, health scores, OpenMetrics"
        ),
    )
    obs.add_argument(
        "experiment", choices=["fig4"],
        help="which experiment to observe",
    )
    obs.add_argument(
        "--seed", type=int, default=7,
        help="fault-plan seed for chaos profiles (default 7)",
    )
    obs.add_argument(
        "--profile", default="flaky-endpoint",
        choices=["flaky-endpoint", "walltime", "partition", "fail-slow", "none"],
        help="fault profile; 'none' runs the fault-free Fig. 4",
    )
    obs.add_argument(
        "--window", type=float, default=60.0,
        help="time-series bucket width in virtual seconds (default 60)",
    )
    obs.add_argument(
        "--slo", action="append", default=None, metavar="KEY=VALUE",
        help=(
            "override an SLO threshold: error-rate=<fraction> or "
            "p95-latency=<seconds>; repeatable"
        ),
    )
    obs.add_argument(
        "--health-routing", action="store_true",
        help="let least-loaded placement break ties on health score",
    )
    obs.add_argument(
        "--export", default="",
        help="write <prefix>-openmetrics.txt and <prefix>-dashboard.json",
    )
    overload = sub.add_parser(
        "overload",
        help=(
            "run the multi-tenant overload comparison: goodput with and "
            "without the protection plane while one tenant floods"
        ),
    )
    overload.add_argument(
        "experiment", choices=["fig4"],
        help="which workload shape to run (fig4: pooled multi-tenant site)",
    )
    overload.add_argument(
        "--tenants", type=int, default=4,
        help="tenants sharing the pool (tenant 0 goes hot; default 4)",
    )
    overload.add_argument(
        "--seed", type=int, default=7,
        help="workload + fault-plan seed; same seed, same report",
    )
    overload.add_argument(
        "--profile", default="overload",
        choices=["overload", "flaky-endpoint", "walltime", "partition", "none"],
        help="fault profile; 'none' runs the comparison fault-free",
    )
    overload.add_argument(
        "--endpoints", type=int, default=4,
        help="endpoints in the shared pool (default 4)",
    )
    overload.add_argument(
        "--hot-factor", type=float, default=8.0,
        help="hot tenant's offered load as a multiple of fair share",
    )
    overload.add_argument(
        "--export", default="",
        help="write <prefix>-openmetrics.txt from the protected run",
    )
    hedge = sub.add_parser(
        "hedge",
        help=(
            "run the pooled Fig. 4 under the fail-slow profile and "
            "compare tail latency with hedged execution off vs on"
        ),
    )
    hedge.add_argument(
        "experiment", choices=["fig4"],
        help="which workload shape to run (fig4: pooled single-site)",
    )
    hedge.add_argument(
        "--seed", type=int, default=7,
        help="workload + fault-plan seed; same seed, same report",
    )
    hedge.add_argument(
        "--profile", default="fail-slow",
        choices=["fail-slow", "none"],
        help="fault profile; 'none' proves quiescence on a healthy pool",
    )
    hedge.add_argument(
        "--endpoints", type=int, default=3,
        help="pool members at the fail-slow site (default 3)",
    )
    suite = sub.add_parser(
        "suite",
        help="declarative workload suites: list, show, or run a suite file",
    )
    suite_sub = suite.add_subparsers(dest="action", required=True)
    suite_sub.add_parser(
        "list", help="list the committed suite files and their expansions"
    )
    show = suite_sub.add_parser(
        "show", help="expand a suite file and print its test instances"
    )
    run = suite_sub.add_parser(
        "run", help="execute a suite (CI engine, or FaaS sweep with --permute)"
    )
    for p in (show, run):
        p.add_argument(
            "suite",
            help="suite name (fig4), file name (fig4.yaml), or path",
        )
        p.add_argument(
            "--var", action="append", default=None, metavar="K=V",
            help=(
                "override a series variable (K=V or K=a,b,c); repeatable"
            ),
        )
    run.add_argument(
        "--permute", action="store_true",
        help=(
            "run every instance directly through FaaS (no CI engine), "
            "in deterministic expansion order"
        ),
    )
    run.add_argument(
        "--profile", default="",
        help=(
            "chaos fault profile (e.g. flaky-endpoint); with --permute "
            "the sweep arms it, otherwise the chaos harness runs the suite"
        ),
    )
    run.add_argument(
        "--policy", default="pinned",
        help="placement policy for --permute (default pinned)",
    )
    run.add_argument(
        "--seed", type=int, default=7,
        help="fault-plan seed; the same seed replays the same run",
    )
    run.add_argument(
        "--pool-size", type=int, default=1,
        help="endpoints per site for --permute (default 1)",
    )
    run.add_argument(
        "--overload", action="store_true",
        help="sweep under the overload-protection plane (implies --permute)",
    )
    run.add_argument(
        "--hedge", action="store_true",
        help="sweep under hedged execution (implies --permute)",
    )
    run.add_argument(
        "--no-telemetry", action="store_true",
        help="run without tracer/metrics (outputs are identical)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
