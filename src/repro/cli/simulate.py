"""Simulation verbs: ``run``, ``simulate``, ``sweep``, ``backends`` and ``inspect``."""

from __future__ import annotations

import argparse
import sys
import time

from repro.cli import Verb, engine_from_args, parse_mesh, record, resolve_design, verb
from repro.store import atomic_write
from repro.topology.classes import rule_for_design


def cmd_run(args: argparse.Namespace) -> int:
    import inspect

    from repro.experiments import ALL_EXPERIMENTS

    wanted = list(ALL_EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [e for e in wanted if e not in ALL_EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s): {', '.join(unknown)}"
            f" (try: {', '.join(ALL_EXPERIMENTS)})"
        )
    engine = engine_from_args(args)
    failures = 0
    for name in wanted:
        fn = ALL_EXPERIMENTS[name]
        kwargs = {}
        if "engine" in inspect.signature(fn).parameters:
            kwargs["engine"] = engine
        started = time.perf_counter()
        result = fn(**kwargs)
        # Only the pass flags: `measured` may hold sets whose repr order
        # follows the hash seed, and `note` carries timings.
        record(
            "experiment", name,
            outcome="ok" if result.passed else "failed",
            payload={c.name: c.passed for c in result.checks},
            wall_s=time.perf_counter() - started,
        )
        print(result.report())
        print()
        if not result.passed:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) FAILED", file=sys.stderr)
    return 1 if failures else 0


@verb("run", "run experiments by id (or 'all')", cmd_run, groups=("jobs", "cache", "obs"))
def RUN(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiments", nargs="+")


def _parse_link(spec: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``"1,1-2,1"`` -> ``((1, 1), (2, 1))``."""
    try:
        u, v = spec.split("-")
        return (
            tuple(int(k) for k in u.split(",")),
            tuple(int(k) for k in v.split(",")),
        )
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        raise SystemExit(f"bad link spec {spec!r} (use e.g. 1,1-2,1): {exc}")


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim import (
        EbdaDesignFactory,
        FaultEvent,
        FaultSchedule,
        RecoveryPolicy,
        RunConfig,
    )

    _design, suggested = resolve_design(args.design)
    mesh = parse_mesh(args.mesh)
    events = [
        FaultEvent(args.fail_at, "link", link=_parse_link(spec))
        for spec in args.fail_link
    ]
    events += [
        FaultEvent(args.fail_at + 10 * i, "drop") for i in range(args.drops)
    ]
    faults = FaultSchedule(events, seed=args.seed) if events else None
    config = RunConfig(
        cycles=args.cycles,
        injection_rate=args.rate,
        packet_length=args.length,
        buffer_depth=args.buffers,
        watchdog=500,
        seed=args.seed,
        faults=faults,
        recovery=RecoveryPolicy(max_retries=args.retries) if args.recover else None,
        routing_factory=(
            EbdaDesignFactory(args.design, directions="progressive", fallback="escape")
            if faults is not None
            else None
        ),
        metrics=bool(args.metrics_out),
        sample_every=args.sample_every,
        trace=bool(args.trace_out),
        backend=args.backend,
    )
    engine = engine_from_args(args)
    point = engine.run_point(
        mesh, EbdaDesignFactory(args.design), config, rule_for_design(suggested)
    )
    result = point.result
    print(result.stats.summary(len(mesh.nodes)))
    if result.reroute_verdict is not None:
        print(f"rerouted design: {result.reroute_verdict}")
    if point.cached:
        print(f"(served from cache in {point.wall_time * 1000:.1f} ms)")
    if result.metrics is not None:
        n = result.metrics.to_jsonl(args.metrics_out, stats=result.stats)
        print(f"metrics: {n} records -> {args.metrics_out} (try: repro inspect)")
    if result.trace is not None:
        n = result.trace.to_jsonl(args.trace_out)
        print(f"trace: {n} records -> {args.trace_out}")
    return 1 if result.deadlocked else 0


@verb(
    "simulate", "simulate a design under uniform traffic", cmd_simulate,
    groups=("backend", "jobs", "cache", "obs"),
)
def SIMULATE(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("design")
    parser.add_argument("--mesh", default="8x8")
    parser.add_argument("--rate", type=float, default=0.05)
    parser.add_argument("--cycles", type=int, default=2000)
    parser.add_argument("--length", type=int, default=4)
    parser.add_argument("--buffers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--fail-link", action="append", default=[], metavar="U-V",
        help="fail a bidirectional link mid-run, e.g. 1,1-2,1 (repeatable)",
    )
    parser.add_argument(
        "--fail-at", type=int, default=100, metavar="CYCLE",
        help="cycle at which scheduled faults strike (default 100)",
    )
    parser.add_argument(
        "--drops", type=int, default=0,
        help="number of transient flit-corruption faults to inject",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="arm regressive recovery (victim abort + retransmission)",
    )
    parser.add_argument(
        "--retries", type=int, default=8,
        help="per-packet retransmission budget (with --recover)",
    )
    parser.add_argument(
        "--metrics-out", default="", metavar="FILE",
        help="attach a MetricsCollector and export telemetry JSONL"
        " (renderable with `repro inspect`)",
    )
    parser.add_argument(
        "--sample-every", type=int, default=100, metavar="N",
        help="metrics sampling interval in cycles (default 100)",
    )
    parser.add_argument(
        "--trace-out", default="", metavar="FILE",
        help="attach a Trace and export per-event records as JSONL",
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.errors import RoutingError
    from repro.sim import (
        NAMED_ROUTING_FACTORIES,
        RunConfig,
        compare_table,
        resolve_routing_factory,
        saturation_rate,
    )

    mesh = parse_mesh(args.mesh)
    try:
        rates = [float(r) for r in args.rates.split(",") if r]
    except ValueError:
        raise SystemExit(f"bad rates {args.rates!r} (use e.g. 0.02,0.05,0.08)")
    if not rates:
        raise SystemExit("need at least one rate")
    try:
        resolve_routing_factory(args.routing)
    except RoutingError:
        known = ", ".join(sorted(NAMED_ROUTING_FACTORIES))
        raise SystemExit(
            f"unknown routing {args.routing!r}; native: {known}"
            " (catalog design names and arrow notation also accepted)"
        )

    engine = engine_from_args(args)
    config = RunConfig(
        cycles=args.cycles,
        packet_length=args.length,
        buffer_depth=args.buffers,
        pattern=args.pattern,
        selection=args.selection,
        watchdog=max(500, 2 * args.cycles),
        seed=args.seed,
        metrics=bool(args.metrics_out),
        sample_every=args.sample_every,
        backend=args.backend,
    )
    report = engine.sweep(mesh, args.routing, rates, config)
    print(compare_table({args.routing: report.results}))
    sat = saturation_rate(report.results)
    print(f"saturation: {sat if sat is not None else '> max rate'}")
    print(report.summary())
    print(report.stage_summary())
    if args.report:
        atomic_write(args.report, json.dumps(report.to_dict(), indent=2))
        print(f"report written to {args.report}")
    if args.metrics_out:
        # Per-point compact summaries (full per-channel series belong to
        # `simulate --metrics-out`; a sweep meters every point cheaply).
        from repro.store import write_jsonl

        write_jsonl(
            args.metrics_out,
            (
                {
                    "record": "sweep-point",
                    "routing": result.routing_name,
                    "injection_rate": result.config.injection_rate,
                    **(result.metrics.summary_dict() if result.metrics is not None else {}),
                }
                for result in report.results
            ),
        )
        print(f"per-point metrics written to {args.metrics_out}")
    return 1 if any(r.deadlocked for r in report.results) else 0


@verb(
    "sweep", "latency/throughput sweep through the parallel engine", cmd_sweep,
    groups=("backend", "jobs", "cache", "obs"),
)
def SWEEP(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "routing",
        help="named routing (e.g. xy, odd-even), catalog design or arrow notation",
    )
    parser.add_argument("--mesh", default="8x8")
    parser.add_argument(
        "--rates", default="0.02,0.05,0.08,0.12",
        help="comma-separated injection rates",
    )
    parser.add_argument("--cycles", type=int, default=2000)
    parser.add_argument("--length", type=int, default=4)
    parser.add_argument("--buffers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--pattern", default="uniform",
        help="named traffic pattern (uniform, transpose, tornado, ...)",
    )
    parser.add_argument(
        "--selection", default="first",
        help="named selection policy (first, random, zigzag, congestion)",
    )
    parser.add_argument(
        "--report", default="", metavar="FILE",
        help="write the SweepReport (timings, stage times, cache hits) as JSON",
    )
    parser.add_argument(
        "--metrics-out", default="", metavar="FILE",
        help="meter every point and write per-point telemetry summaries"
        " as JSONL (disables caching for those points)",
    )
    parser.add_argument(
        "--sample-every", type=int, default=100, metavar="N",
        help="metrics sampling interval in cycles (default 100)",
    )


def cmd_backends(args: argparse.Namespace) -> int:
    from repro.sim import backends

    for info in backends():
        print(f"{info.name}: {info.description}")
        print(f"  cycle-exact:  {'yes' if info.cycle_exact else 'no'}")
        features = {
            "metrics": info.supports_metrics,
            "tracer": info.supports_tracer,
            "faults": info.supports_faults,
            "recovery": info.supports_recovery,
            "waypoints": info.supports_waypoints,
        }
        supported = [k for k, v in features.items() if v]
        print(f"  features:     {', '.join(supported) if supported else '(none)'}")
        print(f"  selections:   {', '.join(info.supported_selections)}")
        print(f"  switching:    {', '.join(info.supported_switching)}")
    return 0


BACKENDS = Verb("backends", "list simulation backends and their capabilities", cmd_backends)


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.sim.metrics import (
        load_metrics,
        render_forensics,
        render_heatmap,
        render_summary,
    )

    records = load_metrics(args.file)
    everything = not (args.summary or args.heatmap or args.forensics)
    sections = []
    if args.summary or everything:
        sections.append(render_summary(records))
    if args.heatmap or everything:
        sections.append(render_heatmap(records))
    if args.forensics or everything:
        sections.append(render_forensics(records))
    print("\n\n".join(sections))
    return 0


@verb("inspect", "render an exported telemetry JSONL file", cmd_inspect)
def INSPECT(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="metrics JSONL from simulate --metrics-out")
    parser.add_argument(
        "--summary", action="store_true", help="print only the text summary"
    )
    parser.add_argument(
        "--heatmap", action="store_true",
        help="print only the per-partition channel-utilization heatmap",
    )
    parser.add_argument(
        "--forensics", action="store_true",
        help="print only the deadlock forensics report",
    )
