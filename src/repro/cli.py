"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the available experiments and named designs.
``run <experiment-id> [...]``
    Run one or more experiments (or ``all``) and print their reports.
``verify <design> [--mesh KxK[xK]] [--rule NAME]``
    Verify a partition sequence in arrow notation on a concrete topology.
``design <vc-budget>``
    Run Algorithm 1 on a comma-separated VC budget and print the design,
    its turns and its verification verdict.
``simulate <design-name> [--mesh ...] [--rate ...] [--cycles ...]``
    Simulate a catalog design (or arrow notation) under uniform traffic.
    ``--fail-link 1,1-2,1 --fail-at 100`` injects runtime link failures
    (with rerouting over the degraded topology); ``--drops N`` injects
    transient flit corruption; ``--recover`` arms regressive recovery.
    ``--cache`` serves repeated fault-free points from the result cache;
    ``--backend vector`` runs the struct-of-arrays numpy engine.
``sweep <design-or-routing> [--rates ...] [--jobs N] [--cache]``
    Latency/throughput sweep through the parallel engine; ``--report``
    writes the SweepReport (per-point wall times, engine stage times,
    cache hits) as JSON; ``--metrics-out`` meters every point and writes
    per-point telemetry summaries as JSONL; ``--backend`` selects the
    simulation engine for every point.
``backends``
    List the registered simulation backends and their capabilities.
``inspect <metrics.jsonl> [--summary] [--heatmap] [--forensics]``
    Render an exported telemetry file: text summary, per-partition
    channel-utilization heatmap, deadlock forensics (all three when no
    section flag is given).
``chaos [--trials N] [--seed S] [--checkpoint-dir DIR] [--out FILE]``
    Monte-Carlo chaos campaign (:mod:`repro.chaos`): seeded random fault
    schedules x recovery policies x trace-driven workloads, survival
    curves rendered per policy.  ``--checkpoint-dir`` makes the campaign
    resumable (kill it, rerun the same command, byte-identical output);
    ``--budget-s`` bounds wall-clock time like ``fuzz``; ``--load FILE``
    renders an existing campaign JSONL without running anything.
``lint <designs...|--all> [--format text|json|sarif] [--fail-on SEV]``
    Static lint pass (:mod:`repro.analyze`): run the EBDA rule catalog
    over catalog names or arrow notation without building a CDG or
    simulating.  ``--select/--ignore`` tune the rule set, ``--baseline``
    suppresses recorded findings, ``--torus`` arms the wrap-ring checks,
    ``--list-rules`` prints the catalog.
``certify [families...|--all] [--gate N] [--cert-dir DIR]``
    Symbolic verification (:mod:`repro.analyze.symbolic`): prove the
    EBDA rules over *parametric* design families — all dimensions and
    radices at once — and seal each verdict as a machine-checkable
    certificate.  The independent checker
    (:mod:`repro.analyze.certcheck`) re-validates every certificate
    unless ``--no-check``; ``--gate N`` cross-checks symbolic verdicts
    against the concrete linter at N random ``(n, k)`` points;
    ``--cert-dir`` writes the sealed certificates as JSON files.
``exists <graph.json> [--design SEQ] [--format text|json]``
    Arbitrary-network existence check (:mod:`repro.core.arbitrary`):
    read a directed graph from JSON (``{"edges": [[src, dst], ...]}``),
    lay a channel-class design over it and report whether a
    deadlock-free routing exists (exit 1 when it does not).
``runs list|show <id-prefix>|diff [--ledger DIR]``
    Query the run ledger (:mod:`repro.obs.ledger`): list every recorded
    invocation, show one record by run-id prefix, or report *drift* —
    identities whose outcome digest changed between library versions
    (``diff`` exits 1 when any drift is found).
``top [--dir DIR] [--watch SECONDS]``
    Live progress of running campaigns, tailed from the heartbeat files
    ``fuzz``/``chaos`` write per batch (:mod:`repro.obs.heartbeat`).

``run`` and ``simulate``/``sweep`` accept ``--jobs``, ``--cache`` /
``--no-cache`` and ``--cache-dir``; experiments that fan simulation
points out (V2/V3/V7) inherit them.  ``simulate`` grows telemetry
exports: ``--metrics-out FILE`` (sampled metrics + forensics JSONL,
``--sample-every`` controls the interval) and ``--trace-out FILE``
(structured per-event trace JSONL).

Observability flags (``run``/``simulate``/``sweep``/``fuzz``/``chaos``/
``lint``): ``--spans-out FILE`` traces the command's pipeline spans to
strict JSONL; ``--ledger DIR`` appends the run to the provenance ledger
``repro runs`` queries.  ``fuzz`` and ``chaos`` print a progress line
and beat a heartbeat file per batch; ``--quiet`` suppresses both.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import Sequence

from repro.analysis import format_turn_table
from repro.cdg import verify_design
from repro.core import PartitionSequence, catalog, extract_turns, partition_vc_budget
from repro.errors import EbdaError, FaultError
from repro.store import atomic_write
from repro.topology import Mesh, NAMED_RULES
from repro.topology.classes import rule_for_design


def _parse_mesh(spec: str) -> Mesh:
    try:
        return Mesh(*(int(k) for k in spec.lower().split("x")))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        raise SystemExit(f"bad mesh spec {spec!r} (use e.g. 8x8 or 4x4x4): {exc}")


def _resolve_design(text: str) -> tuple[PartitionSequence, str]:
    """A catalog name or arrow notation -> (design, suggested rule name)."""
    if text in catalog.NAMED_DESIGNS:
        return catalog.design(text), text
    try:
        return PartitionSequence.parse(text).validate(), ""
    except EbdaError as exc:
        raise SystemExit(f"cannot parse design {text!r}: {exc}")


def cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    print("experiments:")
    for name in ALL_EXPERIMENTS:
        print(f"  {name}")
    print("\nnamed designs:")
    for name in sorted(catalog.NAMED_DESIGNS):
        print(f"  {name:20s} {catalog.design(name).arrow_notation()}")
    print("\nclass rules:", ", ".join(sorted(NAMED_RULES)))
    return 0


def _engine_from_args(args: argparse.Namespace):
    """Build the SweepEngine the --jobs/--cache flags describe (or None)."""
    from repro.sim.parallel import SweepEngine

    cache: object = False
    if getattr(args, "cache", False):
        cache = args.cache_dir or True
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {jobs}")
    if jobs == 1 and not cache:
        return None
    return SweepEngine(jobs=jobs, cache=cache)


@contextmanager
def _obs_scope(args: argparse.Namespace):
    """Arm the observability runtime the --spans-out/--ledger flags ask for.

    Installs a :class:`~repro.obs.trace.Tracer` (written to JSONL on the
    way out, even when the command fails) and/or the run ledger for the
    duration of one command.  Commands without the flags pass through
    untouched — ``main`` wraps every command in this scope.
    """
    spans_out = getattr(args, "spans_out", "")
    ledger_dir = getattr(args, "ledger", "")
    if not spans_out and not ledger_dir:
        yield
        return
    from repro.obs import Tracer, set_ledger, set_tracer

    tracer = Tracer() if spans_out else None
    prev_tracer = set_tracer(tracer) if tracer is not None else None
    prev_ledger = set_ledger(ledger_dir) if ledger_dir else None
    try:
        yield
    finally:
        if ledger_dir:
            set_ledger(prev_ledger)
        if tracer is not None:
            set_tracer(prev_tracer)
            n = tracer.to_jsonl(spans_out)
            print(f"spans: {n} events -> {spans_out}", file=sys.stderr)


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
    engine = _engine_from_args(args)
    failures = 0
    for name in wanted:
        fn = ALL_EXPERIMENTS[name]
        kwargs = {}
        if engine is not None and "engine" in inspect.signature(fn).parameters:
            kwargs["engine"] = engine
        result = fn(**kwargs)
        print(result.report())
        print()
        if not result.passed:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) FAILED", file=sys.stderr)
    return 1 if failures else 0


def cmd_verify(args: argparse.Namespace) -> int:
    design, suggested = _resolve_design(args.design)
    mesh = _parse_mesh(args.mesh)
    if args.rule:
        if args.rule not in NAMED_RULES:
            raise SystemExit(
                f"unknown rule {args.rule!r}; known: {', '.join(NAMED_RULES)}"
            )
        rule = NAMED_RULES[args.rule]
    else:
        rule = rule_for_design(suggested)
    print(f"design: {design}")
    verdict = verify_design(design, mesh, rule)
    print(f"on {mesh!r}: {verdict}")
    return 0 if verdict.acyclic else 1


def cmd_design(args: argparse.Namespace) -> int:
    try:
        budget = [int(v) for v in args.budget.split(",")]
    except ValueError:
        raise SystemExit(f"bad VC budget {args.budget!r} (use e.g. 3,2,3)")
    design = partition_vc_budget(budget)
    print("Algorithm 1 output:")
    for part in design:
        print(f"  {part}")
    turns = extract_turns(design)
    print(f"\nturns ({len(turns)}):")
    print(format_turn_table(turns))
    mesh = Mesh(*([4] * min(len(budget), 2) + [3] * max(0, len(budget) - 2)))
    print(f"\nverification on {mesh!r}: {verify_design(design, mesh)}")
    return 0


def cmd_logic(args: argparse.Namespace) -> int:
    from repro.analysis import full_logic_listing
    from repro.routing import TurnTableRouting

    design, suggested = _resolve_design(args.design)
    mesh = _parse_mesh(args.mesh)
    rule = rule_for_design(suggested)
    routing = TurnTableRouting(mesh, design, rule, label=suggested or "custom")
    print(full_logic_listing(routing, mesh))
    return 0


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
    from repro.routing import TurnTableRouting
    from repro.sim import (
        FaultEvent,
        FaultSchedule,
        NetworkSimulator,
        RecoveryPolicy,
        RunConfig,
        TrafficConfig,
        TrafficGenerator,
    )

    design, suggested = _resolve_design(args.design)
    mesh = _parse_mesh(args.mesh)
    rule = rule_for_design(suggested)
    telemetry = bool(args.metrics_out or args.trace_out)

    if (args.fail_link or args.drops or telemetry) and args.backend != "reference":
        raise SystemExit(
            f"--backend {args.backend} does not support faults or telemetry;"
            " drop the flag (the reference engine handles these)"
        )

    if not (args.fail_link or args.drops or telemetry):
        # Fault-free untelemetered point: run through the engine so
        # --cache works (telemetry forces the direct path below — a
        # metered point is uncacheable and needs the live collector).
        from repro.sim import EbdaDesignFactory, SweepEngine

        engine = _engine_from_args(args) or SweepEngine()
        config = RunConfig(
            cycles=args.cycles,
            injection_rate=args.rate,
            packet_length=args.length,
            buffer_depth=args.buffers,
            watchdog=500,
            seed=args.seed,
            backend=args.backend,
        )
        point = engine.run_point(mesh, EbdaDesignFactory(args.design), config, rule)
        from repro.api import _ledger_point

        _ledger_point(
            mesh, EbdaDesignFactory(args.design), config, rule,
            point.result, point.wall_time,
        )
        print(point.result.stats.summary(len(mesh.nodes)))
        if point.cached:
            print(f"(served from cache in {point.wall_time * 1000:.1f} ms)")
        return 1 if point.result.deadlocked else 0

    events = [
        FaultEvent(args.fail_at, "link", link=_parse_link(spec))
        for spec in args.fail_link
    ]
    events += [
        FaultEvent(args.fail_at + 10 * i, "drop") for i in range(args.drops)
    ]
    faults = FaultSchedule(events, seed=args.seed) if events else None

    def routing_factory(topo):
        return TurnTableRouting(
            topo, design, rule,
            directions="progressive", fallback="escape",
            label=suggested or "custom",
        )

    recovery = RecoveryPolicy(max_retries=args.retries) if args.recover else None
    tracer = None
    collector = None
    if args.trace_out:
        from repro.sim import Trace

        tracer = Trace()
    if args.metrics_out:
        from repro.sim import MetricsCollector

        collector = MetricsCollector(sample_every=args.sample_every)
    routing = TurnTableRouting(mesh, design, rule, label=suggested or "custom")
    sim = NetworkSimulator(
        mesh, routing, rule, buffer_depth=args.buffers,
        tracer=tracer, metrics=collector,
        faults=faults, recovery=recovery,
        routing_factory=routing_factory if faults is not None else None,
    )
    traffic = TrafficGenerator(
        mesh,
        TrafficConfig(
            injection_rate=args.rate, packet_length=args.length, seed=args.seed
        ),
    )
    try:
        stats = sim.run(args.cycles, traffic, drain=True)
    except FaultError as exc:
        raise SystemExit(f"fault schedule failed: {exc}")
    print(stats.summary(len(mesh.nodes)))
    if sim.last_reroute_verdict is not None:
        print(f"rerouted design: {sim.last_reroute_verdict}")
    if collector is not None:
        n = collector.to_jsonl(args.metrics_out, stats=stats)
        print(f"metrics: {n} records -> {args.metrics_out} (try: repro inspect)")
    if tracer is not None:
        n = tracer.to_jsonl(args.trace_out)
        print(f"trace: {n} records -> {args.trace_out}")
    return 1 if stats.deadlocked else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.errors import RoutingError
    from repro.sim import (
        NAMED_ROUTING_FACTORIES,
        RunConfig,
        SweepEngine,
        compare_table,
        resolve_routing_factory,
        saturation_rate,
    )

    mesh = _parse_mesh(args.mesh)
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

    engine = _engine_from_args(args) or SweepEngine()
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
    from repro.sim import check_run_config, resolve_backend

    check_run_config(resolve_backend(args.backend), config)
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


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        FAMILIES,
        DifferentialOracle,
        fast_profile,
        replay_corpus,
        run_fuzz,
        self_check,
    )
    from repro.fuzz.oracle import SimProfile
    from repro.sim.parallel import SweepEngine

    families = None
    if args.families:
        families = tuple(
            name.strip() for name in args.families.split(",") if name.strip()
        )
        unknown = [name for name in families if name not in FAMILIES]
        if unknown or not families:
            raise SystemExit(
                f"unknown families {unknown!r}; choose from {', '.join(FAMILIES)}"
            )

    profile = fast_profile() if args.fast else SimProfile()
    failures = 0

    if args.instantiations > 0:
        from repro.fuzz import run_instantiations

        report = run_instantiations(args.instantiations, seed=args.seed)
        print(report.summary())
        if not report.ok:
            failures += 1

    if args.self_check:
        ok, message = self_check(profile)
        print(message)
        if not ok:
            failures += 1

    if args.replay:
        replayed = replay_corpus(args.replay, profile=profile)
        if not replayed:
            raise SystemExit(f"no corpus entries under {args.replay!r}")
        for entry, detected, trial in replayed:
            status = "ok" if detected else "MISSED"
            print(
                f"replay {entry.id} [{status}] expect={entry.expect}"
                f" got={trial.classification}: {entry.design.describe()}"
            )
            if not detected:
                failures += 1
        print(f"replayed {len(replayed)} corpus entries")

    if args.runs > 0:
        engine = _engine_from_args(args)
        if engine is None and args.jobs > 1:
            engine = SweepEngine(jobs=args.jobs)
        heartbeat = None
        progress = None
        if not args.quiet:
            from repro.obs import HeartbeatWriter

            progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
            heartbeat = HeartbeatWriter(
                f"fuzz-{args.seed}", "fuzz", args.runs
            )
        report = run_fuzz(
            args.runs,
            seed=args.seed,
            budget_s=args.budget_s,
            corpus_dir=args.corpus_dir or None,
            engine=engine,
            profile=profile,
            families=families,
            progress=progress,
            heartbeat=heartbeat,
        )
        print(report.summary())
        if args.report:
            path = report.to_jsonl(args.report)
            print(f"trial log written to {path}")
        if not report.ok:
            failures += 1

    return 1 if failures else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import CampaignConfig, ChaosCampaign, render_survival
    from repro.sim.parallel import SweepEngine

    if args.load:
        print(render_survival(args.load))
        return 0

    try:
        mesh = tuple(int(k) for k in args.mesh.lower().split("x"))
    except ValueError:
        raise SystemExit(f"bad mesh spec {args.mesh!r} (use e.g. 4x4)")
    config = CampaignConfig(
        trials=args.trials,
        seed=args.seed,
        mesh=mesh,
        routing=args.routing,
        workloads=tuple(w for w in args.workloads.split(",") if w),
        policies=tuple(p for p in args.policies.split(",") if p),
        max_faults=args.max_faults,
        cycles=args.cycles,
        buffer_depth=args.buffers,
        watchdog=args.watchdog,
    )

    engine = _engine_from_args(args) or SweepEngine()
    campaign = ChaosCampaign(
        config, engine=engine, checkpoint_dir=args.checkpoint_dir or None
    )
    heartbeat = None
    progress = None
    if not args.quiet:
        from repro.obs import HeartbeatWriter

        progress = print
        heartbeat = HeartbeatWriter(config.token(), "chaos", config.trials)
    report = campaign.run(
        budget_s=args.budget_s, progress=progress, heartbeat=heartbeat
    )
    print(report.summary())
    if args.out:
        n = report.to_jsonl(args.out)
        print(f"campaign report: {n} records -> {args.out}")
    print()
    print(report.render())
    if report.interrupted:
        print(
            "(budget expired — rerun the same command with the same"
            " --checkpoint-dir to finish)"
        )
    return 0 if report.ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analyze import (
        NATIVE_LINT,
        RULES,
        Analyzer,
        DesignUnit,
        Severity,
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.analyze.reporters import render_json, render_sarif, render_text
    from repro.topology import Torus

    if args.list_rules:
        for rid, info in sorted(RULES.items()):
            flags = []
            if info.requires_topology:
                flags.append("topology")
            if not info.default_enabled:
                flags.append("opt-in")
            extra = f" [{', '.join(flags)}]" if flags else ""
            print(f"{rid} {info.severity.value:7s} {info.title}"
                  f" ({info.citation}){extra}")
        return 0

    names = list(args.designs)
    if args.all:
        names.extend(n for n in sorted(catalog.NAMED_DESIGNS) if n not in names)
    if not names:
        raise SystemExit("nothing to lint: name designs or pass --all")

    select = tuple(args.select.split(",")) if args.select else None
    ignore = tuple(args.ignore.split(",")) if args.ignore else ()
    analyzer = Analyzer(select=select, ignore=ignore)

    rule = None
    if args.rule:
        if args.rule not in NAMED_RULES:
            raise SystemExit(
                f"unknown rule {args.rule!r}; known: {', '.join(NAMED_RULES)}"
            )
        rule = NAMED_RULES[args.rule]

    def topology_for(design: PartitionSequence):
        if args.no_topology:
            return None
        n = len({ch.dim for ch in design.all_channels})
        if args.torus:
            try:
                return Torus(*(int(k) for k in args.torus.lower().split("x")))
            except Exception as exc:  # noqa: BLE001 - CLI boundary
                raise SystemExit(f"bad torus spec {args.torus!r}: {exc}")
        if args.mesh:
            return _parse_mesh(args.mesh)
        return Mesh(*((4,) * max(1, n)))

    def resolve_unvalidated(text: str) -> tuple[PartitionSequence, str]:
        # Unlike _resolve_design, skip .validate(): surfacing theorem
        # violations as diagnostics is the linter's entire purpose.
        if text in catalog.NAMED_DESIGNS:
            return catalog.design(text), text
        try:
            return PartitionSequence.parse(text), ""
        except EbdaError as exc:
            raise SystemExit(f"cannot parse design {text!r}: {exc}")

    reports = []
    for name in names:
        design, suggested = resolve_unvalidated(name)
        design_analyzer = analyzer
        if name in NATIVE_LINT and not (args.torus or args.mesh or args.no_topology):
            make_topology, extra_ignore = NATIVE_LINT[name]
            topology = make_topology()
            if extra_ignore:
                design_analyzer = Analyzer(
                    select=select, ignore=ignore + extra_ignore
                )
        else:
            topology = topology_for(design)
        unit = DesignUnit.from_sequence(
            design,
            name=name if name in catalog.NAMED_DESIGNS else design.arrow_notation(),
            topology=topology,
            rule=rule if rule is not None else rule_for_design(suggested),
            claims_fully_adaptive=args.full_adaptive,
        )
        reports.append(design_analyzer.run(unit))

    _ledger_lint(names, reports)

    if args.write_baseline:
        n = write_baseline(reports, args.write_baseline)
        print(f"baseline with {n} fingerprint(s) written to {args.write_baseline}")
        return 0
    if args.baseline:
        reports = apply_baseline(reports, load_baseline(args.baseline))

    if args.format == "json":
        rendered = render_json(reports)
    elif args.format == "sarif":
        rendered = render_sarif(reports)
    else:
        rendered = render_text(reports, verbose=args.verbose)
    if args.output:
        atomic_write(args.output, rendered + "\n")
        print(f"{args.format} report written to {args.output}")
    else:
        print(rendered)

    if args.fail_on == "never":
        return 0
    threshold = Severity(args.fail_on)
    failing = sum(len(r.at_or_above(threshold)) for r in reports)
    return 1 if failing else 0


def _ledger_lint(names: list, reports: list) -> None:
    """Append one ``lint`` run record (pre-baseline) when a ledger is armed.

    The payload maps each unit to its sorted diagnostic rule IDs — a
    deterministic digest, so a rule catalog change shows up as drift.
    """
    from repro.obs.ledger import current_ledger, record_run
    from repro.store import digest

    if current_ledger() is None:
        return
    spec = ",".join(names)
    if len(spec) > 80:
        spec = "designs:" + digest(spec, 16)
    findings = sum(len(r.diagnostics) for r in reports)
    record_run(
        "lint",
        spec=spec,
        outcome="findings" if findings else "ok",
        payload={
            r.unit_name: sorted(d.rule for d in r.diagnostics) for r in reports
        },
        wall_s=sum(r.elapsed_s for r in reports),
    )


def _describe_region(region: dict) -> str:
    kind = region.get("kind")
    if kind == "none":
        return "nowhere"
    if kind == "all":
        return "every (n, k) in the domain"
    if kind == "n-ge":
        return f"all n >= {region['n0']}"
    if kind == "k-ge":
        return f"all k >= {region['k0']}"
    return f"region {region!r}"


def cmd_certify(args: argparse.Namespace) -> int:
    import json

    from repro.analyze import (
        SYMBOLIC_FAMILIES,
        certify_all,
        check_certificates,
        differential_gate,
    )

    names = list(args.families)
    if args.all or not names:
        names = sorted(SYMBOLIC_FAMILIES)
    start = time.perf_counter()
    reports = certify_all(tuple(names))

    failures = 0
    certs = [c for rep in reports for c in rep.certificates]

    check_problems: list[str] = []
    if not args.no_check:
        for result in check_certificates([c.to_dict() for c in certs]):
            if not result.ok:
                failures += 1
                check_problems.append(result.describe())

    gate = None
    if args.gate > 0:
        gate = differential_gate(tuple(names), points=args.gate, seed=args.seed)
        failures += len(gate.disagreements)

    if args.format == "json":
        payload = {
            "families": [rep.to_dict() for rep in reports],
            "certificates": len(certs),
            "checker": None if args.no_check else {
                "checked": len(certs),
                "problems": check_problems,
            },
            "differential": None if gate is None else gate.to_dict(),
            "ok": failures == 0,
        }
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = []
        for rep in reports:
            design = symbolic_family_summary(rep.family)
            if rep.ok:
                verdict = (
                    f"proven clean ({len(rep.applicable_rules)} rules,"
                    f" {len(rep.certificates) - len(rep.applicable_rules)}"
                    " inapplicable)"
                )
            else:
                parts = [
                    f"{c.rule} fires on {_describe_region(c.region)}"
                    for c in rep.certificates
                    if c.status == "violation"
                ]
                verdict = "; ".join(parts)
            lines.append(f"{rep.family} ({design}): {verdict}")
        lines.append(
            f"{len(reports)} families, {len(certs)} certificates"
        )
        if not args.no_check:
            lines.append(
                "checker: all certificates independently re-validated"
                if not check_problems
                else "checker REJECTED certificates:"
            )
            lines.extend(f"  {p}" for p in check_problems)
        if gate is not None:
            verdict = (
                "zero disagreements"
                if gate.ok
                else f"{len(gate.disagreements)} DISAGREEMENT(S)"
            )
            lines.append(
                f"differential: {len(gate.checked)} symbolic-vs-concrete"
                f" checks at {gate.points} random points — {verdict}"
            )
            lines.extend(f"  {d.describe()}" for d in gate.disagreements)
        rendered = "\n".join(lines)

    if args.out:
        atomic_write(args.out, rendered + "\n")
        print(f"{args.format} certification report written to {args.out}")
    else:
        print(rendered)

    if args.cert_dir:
        for rep in reports:
            certificates = json.dumps([c.to_dict() for c in rep.certificates])
            atomic_write(f"{args.cert_dir}/{rep.family}.json", certificates + "\n")
        print(f"{len(reports)} certificate files written to {args.cert_dir}")

    _ledger_certify(names, reports, failures, time.perf_counter() - start)
    return 1 if failures else 0


def symbolic_family_summary(name: str) -> str:
    """One-line domain summary for a family, e.g. ``mesh, n >= 2, k >= 2``."""
    from repro.analyze import symbolic_family

    design = symbolic_family(name)
    if design.n_fixed is not None:
        shape = f"n = {design.n_fixed}"
    else:
        shape = f"n >= {design.n_min}"
    return f"{design.kind}, {shape}, k >= {design.k_min}"


def _ledger_certify(
    names: list, reports: list, failures: int, wall_s: float
) -> None:
    from repro.obs.ledger import current_ledger, record_run
    from repro.store import digest

    if current_ledger() is None:
        return
    spec = ",".join(names)
    if len(spec) > 80:
        spec = "families:" + digest(spec, 16)
    record_run(
        "certify",
        spec=spec,
        outcome="failures" if failures else "ok",
        payload={
            rep.family: sorted(rep.violation_rules) for rep in reports
        },
        wall_s=wall_s,
    )


def cmd_exists(args: argparse.Namespace) -> int:
    import json

    from repro.core.arbitrary import verdict_from_turns
    from repro.store import read_json
    from repro.topology.irregular import GraphTopology

    spec = read_json(args.graph)
    if "edges" not in spec:
        raise SystemExit(
            'graph JSON must be an object with an "edges" list;'
            ' optional keys: "nodes", "design"'
        )

    def coord(value: object) -> tuple:
        # Scalar node labels become 1-tuples, the coordinate form
        # GraphTopology expects.
        if isinstance(value, list):
            return tuple(value)
        return (value,)

    try:
        edges = [(coord(u), coord(v)) for u, v in spec["edges"]]
    except (TypeError, ValueError):
        raise SystemExit('each edge must be a [src, dst] pair')
    nodes = [coord(n) for n in spec.get("nodes", ())]

    # The channel-class structure laid over the graph: a partition
    # sequence in arrow notation (CLI flag wins over the file's "design"
    # key).  Default is the single class X+, which makes the existence
    # check a pure wait-graph drain over the raw links.
    design_text = args.design or str(spec.get("design", "")) or "X+"
    topology = GraphTopology(edges, nodes)
    sequence = PartitionSequence.parse(design_text)
    turnset = extract_turns(sequence, validate=False)

    verdict = verdict_from_turns(topology, turnset, sequence.all_channels)

    if args.format == "json":
        print(json.dumps({
            "graph": {"nodes": len(topology.nodes), "edges": len(topology.links)},
            "design": design_text,
            "safe": verdict.safe,
            "wires": verdict.wires,
            "dependencies": verdict.dependencies,
            "core": verdict.core,
            "cycle": list(verdict.cycle),
        }, indent=2, sort_keys=True))
    else:
        print(
            f"graph: {len(topology.nodes)} nodes,"
            f" {len(topology.links)} directed links; design: {design_text}"
        )
        print(verdict.describe())
    return 0 if verdict.safe else 1


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs import RunLedger

    ledger = RunLedger(args.ledger or None)
    records = ledger.records()

    if args.action == "list":
        if not records:
            print(f"(no runs recorded under {ledger.path})")
            return 0
        print(f"{'RUN-ID':16s} {'KIND':9s} {'BACKEND':9s} {'SEED':>5s}"
              f" {'OUTCOME':12s} {'WALL':>8s}  SPEC")
        for r in records:
            print(
                f"{r.run_id:16s} {r.kind:9s} {r.backend:9s} {r.seed:5d}"
                f" {r.outcome:12s} {r.wall_s:7.2f}s  {r.spec}"
            )
        return 0

    if args.action == "show":
        import json

        matches = ledger.find(args.run_id)
        if not matches:
            raise SystemExit(
                f"no run matches id prefix {args.run_id!r} in {ledger.path}"
            )
        for r in matches:
            print(json.dumps(r.to_dict(), indent=2, sort_keys=True))
        return 0

    # diff: identity groups whose outcome digest changed across records.
    rows = ledger.drift()
    if not rows:
        print(f"no drift across {len(records)} run(s): every repeated"
              " identity reproduced the same outcome digest")
        return 0
    for row in rows:
        print(
            f"DRIFT {row['kind']} spec={row['spec']}"
            f" backend={row['backend']} seed={row['seed']}:"
        )
        for v in row["variants"]:
            versions = ",".join(f"{k}={v2}" for k, v2 in sorted(v["versions"].items()))
            print(
                f"  {v['run_id']}  digest={v['digest']}"
                f" outcome={v['outcome']}  [{versions}]"
            )
    print(f"{len(rows)} drifting identit(y/ies)", file=sys.stderr)
    return 1


def cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs import render_top

    directory = args.dir or None
    if not args.watch:
        print(render_top(directory=directory))
        return 0
    try:
        while True:
            print("\033[2J\033[H", end="")
            print(render_top(directory=directory))
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=("reference", "vector"), default="reference",
        help="simulation engine: reference (full feature set) or vector"
        " (numpy kernel, cycle-exact, much faster; see `repro backends`)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spans-out", default="", metavar="FILE",
        help="trace the command's pipeline spans and write them as JSONL",
    )
    parser.add_argument(
        "--ledger", default="", metavar="DIR",
        help="append this run to the ledger in DIR (query with `repro runs`;"
        " $REPRO_EBDA_LEDGER_DIR arms it globally)",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation points (default 1: in-process)",
    )
    parser.add_argument(
        "--cache", dest="cache", action="store_true", default=False,
        help="serve repeated points from the on-disk result cache",
    )
    parser.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="disable the result cache (the default)",
    )
    parser.add_argument(
        "--cache-dir", default="", metavar="DIR",
        help="cache directory (default ~/.cache/repro-ebda or $REPRO_EBDA_CACHE_DIR)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EbDa: design and verification of deadlock-free interconnection networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and named designs").set_defaults(
        func=cmd_list
    )

    p_run = sub.add_parser("run", help="run experiments by id (or 'all')")
    p_run.add_argument("experiments", nargs="+")
    _add_engine_flags(p_run)
    _add_obs_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="verify a design on a mesh")
    p_verify.add_argument("design", help="catalog name or arrow notation")
    p_verify.add_argument("--mesh", default="8x8")
    p_verify.add_argument("--rule", default="", help=f"one of: {', '.join(NAMED_RULES)}")
    p_verify.set_defaults(func=cmd_verify)

    p_design = sub.add_parser("design", help="run Algorithm 1 on a VC budget")
    p_design.add_argument("budget", help="comma-separated VCs per dimension, e.g. 3,2,3")
    p_design.set_defaults(func=cmd_design)

    p_logic = sub.add_parser("logic", help="emit the §5.4 if-else routing logic")
    p_logic.add_argument("design", help="catalog name or arrow notation (2D)")
    p_logic.add_argument("--mesh", default="4x4")
    p_logic.set_defaults(func=cmd_logic)

    p_sim = sub.add_parser("simulate", help="simulate a design under uniform traffic")
    p_sim.add_argument("design")
    p_sim.add_argument("--mesh", default="8x8")
    p_sim.add_argument("--rate", type=float, default=0.05)
    p_sim.add_argument("--cycles", type=int, default=2000)
    p_sim.add_argument("--length", type=int, default=4)
    p_sim.add_argument("--buffers", type=int, default=4)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument(
        "--fail-link", action="append", default=[], metavar="U-V",
        help="fail a bidirectional link mid-run, e.g. 1,1-2,1 (repeatable)",
    )
    p_sim.add_argument(
        "--fail-at", type=int, default=100, metavar="CYCLE",
        help="cycle at which scheduled faults strike (default 100)",
    )
    p_sim.add_argument(
        "--drops", type=int, default=0,
        help="number of transient flit-corruption faults to inject",
    )
    p_sim.add_argument(
        "--recover", action="store_true",
        help="arm regressive recovery (victim abort + retransmission)",
    )
    p_sim.add_argument(
        "--retries", type=int, default=8,
        help="per-packet retransmission budget (with --recover)",
    )
    p_sim.add_argument(
        "--metrics-out", default="", metavar="FILE",
        help="attach a MetricsCollector and export telemetry JSONL"
        " (renderable with `repro inspect`)",
    )
    p_sim.add_argument(
        "--sample-every", type=int, default=100, metavar="N",
        help="metrics sampling interval in cycles (default 100)",
    )
    p_sim.add_argument(
        "--trace-out", default="", metavar="FILE",
        help="attach a Trace and export per-event records as JSONL",
    )
    _add_backend_flag(p_sim)
    _add_engine_flags(p_sim)
    _add_obs_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep", help="latency/throughput sweep through the parallel engine"
    )
    p_sweep.add_argument(
        "routing",
        help="named routing (e.g. xy, odd-even), catalog design or arrow notation",
    )
    p_sweep.add_argument("--mesh", default="8x8")
    p_sweep.add_argument(
        "--rates", default="0.02,0.05,0.08,0.12",
        help="comma-separated injection rates",
    )
    p_sweep.add_argument("--cycles", type=int, default=2000)
    p_sweep.add_argument("--length", type=int, default=4)
    p_sweep.add_argument("--buffers", type=int, default=4)
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.add_argument(
        "--pattern", default="uniform",
        help="named traffic pattern (uniform, transpose, tornado, ...)",
    )
    p_sweep.add_argument(
        "--selection", default="first",
        help="named selection policy (first, random, zigzag, congestion)",
    )
    p_sweep.add_argument(
        "--report", default="", metavar="FILE",
        help="write the SweepReport (timings, stage times, cache hits) as JSON",
    )
    p_sweep.add_argument(
        "--metrics-out", default="", metavar="FILE",
        help="meter every point and write per-point telemetry summaries"
        " as JSONL (disables caching for those points)",
    )
    p_sweep.add_argument(
        "--sample-every", type=int, default=100, metavar="N",
        help="metrics sampling interval in cycles (default 100)",
    )
    _add_backend_flag(p_sweep)
    _add_engine_flags(p_sweep)
    _add_obs_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    sub.add_parser(
        "backends", help="list simulation backends and their capabilities"
    ).set_defaults(func=cmd_backends)

    p_inspect = sub.add_parser(
        "inspect", help="render an exported telemetry JSONL file"
    )
    p_inspect.add_argument("file", help="metrics JSONL from simulate --metrics-out")
    p_inspect.add_argument(
        "--summary", action="store_true", help="print only the text summary"
    )
    p_inspect.add_argument(
        "--heatmap", action="store_true",
        help="print only the per-partition channel-utilization heatmap",
    )
    p_inspect.add_argument(
        "--forensics", action="store_true",
        help="print only the deadlock forensics report",
    )
    p_inspect.set_defaults(func=cmd_inspect)

    p_lint = sub.add_parser(
        "lint",
        help="static lint pass over designs (no CDG build, no simulation)",
    )
    p_lint.add_argument(
        "designs", nargs="*",
        help="catalog names or arrow notation (with --all: the whole catalog)",
    )
    p_lint.add_argument(
        "--all", action="store_true", help="lint every catalog design"
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (IDs, severities, citations) and exit",
    )
    p_lint.add_argument(
        "--mesh", default="", metavar="KxK",
        help="lint on this mesh (default: a 4-per-dim mesh per design)",
    )
    p_lint.add_argument(
        "--torus", default="", metavar="KxK",
        help="lint on this torus instead of a mesh (arms wrap-ring checks)",
    )
    p_lint.add_argument(
        "--no-topology", action="store_true",
        help="skip topology-aware rules entirely",
    )
    p_lint.add_argument(
        "--rule", default="", help=f"class rule, one of: {', '.join(NAMED_RULES)}"
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text)",
    )
    p_lint.add_argument(
        "--output", default="", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    p_lint.add_argument(
        "--select", default="", metavar="IDS",
        help="comma-separated rule IDs to run (enables opt-in rules)",
    )
    p_lint.add_argument(
        "--ignore", default="", metavar="IDS",
        help="comma-separated rule IDs to skip",
    )
    p_lint.add_argument(
        "--fail-on", choices=("error", "warning", "note", "never"),
        default="error",
        help="exit nonzero when a diagnostic at/above this severity remains"
        " (default error)",
    )
    p_lint.add_argument(
        "--baseline", default="", metavar="FILE",
        help="suppress findings whose fingerprints appear in this baseline",
    )
    p_lint.add_argument(
        "--write-baseline", default="", metavar="FILE",
        help="record current findings as a baseline and exit",
    )
    p_lint.add_argument(
        "--full-adaptive", action="store_true",
        help="assert the design claims full adaptivity (arms EBDA009)",
    )
    p_lint.add_argument(
        "--verbose", action="store_true",
        help="show per-design rule lists and timings (text format)",
    )
    _add_obs_flags(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_cert = sub.add_parser(
        "certify",
        help="symbolic verification: prove EBDA rules over all radices"
        " and seal machine-checkable certificates",
    )
    p_cert.add_argument(
        "families", nargs="*",
        help="symbolic family names (default: every registered family)",
    )
    p_cert.add_argument(
        "--all", action="store_true",
        help="certify every registered family (the default when no"
        " families are named)",
    )
    p_cert.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p_cert.add_argument(
        "--out", default="", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    p_cert.add_argument(
        "--cert-dir", default="", metavar="DIR",
        help="also write one sealed-certificate JSON file per family here",
    )
    p_cert.add_argument(
        "--gate", type=int, default=0, metavar="N",
        help="also run the differential gate: cross-check symbolic"
        " verdicts against the concrete linter at N random (n, k) points",
    )
    p_cert.add_argument(
        "--seed", type=int, default=0,
        help="differential-gate root seed (default 0)",
    )
    p_cert.add_argument(
        "--no-check", action="store_true",
        help="skip the independent certificate re-validation pass",
    )
    _add_obs_flags(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_exists = sub.add_parser(
        "exists",
        help="arbitrary-network existence check: does a deadlock-free"
        " routing exist on a user-supplied graph?",
    )
    p_exists.add_argument(
        "graph", metavar="GRAPH.json",
        help='JSON file: {"edges": [[src, dst], ...], "nodes": [...],'
        ' "design": "..."} — nodes are scalars or coordinate lists',
    )
    p_exists.add_argument(
        "--design", default="", metavar="SEQ",
        help="channel-class design in arrow notation laid over the graph"
        " (default: the file's \"design\" key, else the single class X+)",
    )
    p_exists.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    _add_obs_flags(p_exists)
    p_exists.set_defaults(func=cmd_exists)

    p_chaos = sub.add_parser(
        "chaos",
        help="Monte-Carlo chaos campaign: faults x policies x workloads",
    )
    p_chaos.add_argument(
        "--trials", type=int, default=50, metavar="N",
        help="number of Monte-Carlo trials (default 50)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, help="campaign root seed (default 0)"
    )
    p_chaos.add_argument("--mesh", default="4x4")
    p_chaos.add_argument(
        "--routing", default="negative-first",
        help="routing spec under test (catalog design or native name)",
    )
    p_chaos.add_argument(
        "--workloads", default="all-reduce,shuffle,incast,bursty",
        help="comma-separated named workloads to mix (see docs/CHAOS.md)",
    )
    p_chaos.add_argument(
        "--policies", default="none,retry-2,retry-8",
        help="comma-separated recovery policies to compare",
    )
    p_chaos.add_argument(
        "--max-faults", type=int, default=2, metavar="K",
        help="per-trial link failures drawn uniformly from 0..K (default 2)",
    )
    p_chaos.add_argument("--cycles", type=int, default=300)
    p_chaos.add_argument("--buffers", type=int, default=4)
    p_chaos.add_argument("--watchdog", type=int, default=200)
    p_chaos.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; the campaign stops cleanly between batches",
    )
    p_chaos.add_argument(
        "--checkpoint-dir", default="", metavar="DIR",
        help="persist per-trial records here; rerunning resumes byte-identically",
    )
    p_chaos.add_argument(
        "--out", default="", metavar="FILE",
        help="write the campaign report (meta + trials + survival) as JSONL",
    )
    p_chaos.add_argument(
        "--load", default="", metavar="FILE",
        help="render an existing campaign JSONL and exit (no simulation)",
    )
    p_chaos.add_argument(
        "--quiet", action="store_true",
        help="suppress per-batch progress lines and heartbeat files",
    )
    _add_engine_flags(p_chaos)
    _add_obs_flags(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: cross-check theorems, CDG and simulator",
    )
    p_fuzz.add_argument(
        "--runs", type=int, default=200, metavar="N",
        help="number of differential trials (default 200; 0 skips the campaign)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="generator root seed (default 0)"
    )
    p_fuzz.add_argument(
        "--families", default="", metavar="CSV",
        help="topology families to draw designs from, comma-separated"
        " (mesh,torus,dragonfly,fattree,irregular; default mesh,torus)",
    )
    p_fuzz.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; the campaign stops cleanly between batches",
    )
    p_fuzz.add_argument(
        "--corpus-dir", default="", metavar="DIR",
        help="persist minimised disagreement witnesses here for replay",
    )
    p_fuzz.add_argument(
        "--report", default="", metavar="FILE",
        help="write a JSONL trial log (one line per trial + totals)",
    )
    p_fuzz.add_argument(
        "--replay", default="", metavar="DIR",
        help="re-judge every saved witness in DIR before fuzzing",
    )
    p_fuzz.add_argument(
        "--self-check", action="store_true",
        help="inject a synthetic disagreement and verify detection + shrinking",
    )
    p_fuzz.add_argument(
        "--instantiations", type=int, default=0, metavar="N",
        help="also run the instantiation oracle: cross-check symbolic"
        " certificates against the concrete linter at N random (n, k)"
        " points (default 0: off)",
    )
    p_fuzz.add_argument(
        "--fast", action="store_true",
        help="shorter simulation budgets (smoke runs, property tests)",
    )
    p_fuzz.add_argument(
        "--quiet", action="store_true",
        help="suppress per-batch progress lines and heartbeat files",
    )
    _add_engine_flags(p_fuzz)
    _add_obs_flags(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_runs = sub.add_parser(
        "runs", help="query the run ledger (provenance and drift)"
    )
    p_runs.add_argument(
        "action", choices=("list", "show", "diff"),
        help="list all runs, show one by id prefix, or report outcome drift",
    )
    p_runs.add_argument(
        "run_id", nargs="?", default="",
        help="run-id prefix (for `runs show`)",
    )
    p_runs.add_argument(
        "--ledger", default="", metavar="DIR",
        help="ledger directory (default $REPRO_EBDA_LEDGER_DIR or"
        " <cache-dir>/ledger)",
    )
    p_runs.set_defaults(func=cmd_runs)

    p_top = sub.add_parser(
        "top", help="live progress of running campaigns (heartbeat files)"
    )
    p_top.add_argument(
        "--dir", default="", metavar="DIR",
        help="heartbeat directory (default $REPRO_EBDA_HEARTBEAT_DIR or"
        " <cache-dir>/heartbeats)",
    )
    p_top.add_argument(
        "--watch", type=float, default=0.0, metavar="SECONDS",
        help="redraw every SECONDS until interrupted (default: one shot)",
    )
    p_top.set_defaults(func=cmd_top)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _obs_scope(args):
            return args.func(args)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0
    except EbdaError as exc:  # the one place library errors become an exit
        raise SystemExit(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
