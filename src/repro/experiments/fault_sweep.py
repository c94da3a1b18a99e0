"""V7 — chaos sweep: runtime faults, rerouting and regressive recovery.

The static V5 experiment counts routable pairs on an already-degraded
mesh; this one exercises the *dynamic* path: links fail mid-simulation,
the routing function is rebuilt over the surviving topology (re-verified
acyclic each time), disturbed packets are aborted and retransmitted, and
a watchdog-triggered victim abort breaks genuine cyclic waits.

Three parts:

1. **Sweep** — fault count x injection rate on a 5x5 mesh under the
   negative-first EbDa design (progressive directions + escape fallback).
   Every point must deliver 100% of its traffic despite the failures.
2. **Partial-3D point** — the same machinery on the §6.3 partially
   connected 3D topology with its EbDa design.
3. **Recovery scenario** — the deadlock-PRONE unrestricted-adaptive
   baseline under heavy load: the watchdog confirms a cyclic wait and
   recovery aborts a victim; a later link failure reconfigures the
   network onto the negative-first design (re-verified acyclic).  The
   run still delivers every packet, and is bit-identical across two
   same-seed executions.
"""

from __future__ import annotations

from repro.analysis import text_table
from repro.experiments.base import Check, ExperimentResult, check_eq, check_true
from repro.routing.fullyadaptive import UnrestrictedAdaptive
from repro.sim import (
    EbdaDesignFactory,
    FaultEvent,
    FaultSchedule,
    NetworkSimulator,
    RecoveryPolicy,
    RunConfig,
    SweepEngine,
    TrafficConfig,
    TrafficGenerator,
)
from repro.topology import Mesh, PartiallyConnected3D

FAULT_COUNTS = (0, 1, 2)
RATES = (0.02, 0.05)


def _ebda_factory(design_name: str) -> EbdaDesignFactory:
    """A picklable escape-capable factory for a catalog design.

    :class:`EbdaDesignFactory` is a frozen value, so fault-sweep points
    carrying it fan out over the engine's worker processes and cache.
    """
    return EbdaDesignFactory(design_name, directions="progressive", fallback="escape")


def _fmt(value: float) -> str:
    return f"{value:.2f}" if value == value else "n/a"  # NaN-safe


def run(
    *, cycles: int = 300, engine: SweepEngine | None = None
) -> ExperimentResult:
    checks: list[Check] = []
    rows = []
    if engine is None:
        engine = SweepEngine()

    # Part 1: fault count x injection rate on the 5x5 mesh — one engine
    # fan-out over the whole grid (schedules and factories are picklable).
    mesh = Mesh(5, 5)
    factory = _ebda_factory("negative-first")
    grid = []
    for n_faults in FAULT_COUNTS:
        schedule = FaultSchedule.random(
            mesh, seed=40 + n_faults, n_link_failures=n_faults,
            window=(50, max(51, cycles - 50)), routing_factory=factory,
        )
        for rate in RATES:
            cfg = RunConfig(
                cycles=cycles,
                injection_rate=rate,
                packet_length=4,
                watchdog=300,
                seed=7,
                faults=schedule,
                recovery=RecoveryPolicy(),
                routing_factory=factory,
            )
            grid.append((n_faults, rate, cfg))
    report = engine.run_many((mesh, factory, cfg) for _n, _r, cfg in grid)
    for (n_faults, rate, _cfg), point in zip(grid, report.points):
        stats = point.result.stats
        rows.append(
            ["mesh 5x5", n_faults, f"{rate:.2f}",
             f"{stats.delivery_ratio:.3f}", stats.packets_aborted,
             _fmt(stats.avg_recovery_latency)]
        )
        checks.append(
            check_true(
                f"full delivery with {n_faults} fault(s) at rate {rate}",
                not stats.deadlocked
                and stats.delivery_ratio == 1.0
                and stats.faults_injected == n_faults,
                note=stats.summary(len(mesh.nodes)),
            )
        )

    # Part 2: one link failure on the partially connected 3D topology.
    topo3d = PartiallyConnected3D(4, 4, 2, elevators=[(1, 1), (3, 2)])
    factory3d = _ebda_factory("partial3d")
    schedule3d = FaultSchedule.random(
        topo3d, seed=11, n_link_failures=1,
        window=(50, max(51, cycles - 50)), routing_factory=factory3d,
    )
    cfg3d = RunConfig(
        cycles=cycles,
        injection_rate=0.02,
        packet_length=4,
        watchdog=300,
        seed=7,
        faults=schedule3d,
        recovery=RecoveryPolicy(),
        routing_factory=factory3d,
    )
    result3d = engine.run_point(topo3d, factory3d, cfg3d).result
    rows.append(
        ["partial-3D", 1, "0.02", f"{result3d.stats.delivery_ratio:.3f}",
         result3d.stats.packets_aborted, _fmt(result3d.stats.avg_recovery_latency)]
    )
    checks.append(
        check_true(
            "partial-3D survives a link failure with full delivery",
            not result3d.stats.deadlocked
            and result3d.stats.delivery_ratio == 1.0,
            note=result3d.stats.summary(len(topo3d.nodes)),
        )
    )

    # Part 3: deadlock recovery + fault-triggered reconfiguration.
    def recovery_scenario():
        small = Mesh(4, 4)
        faults = FaultSchedule(
            [FaultEvent(400, "link", link=((1, 1), (2, 1)))], seed=9
        )
        sim = NetworkSimulator(
            small,
            UnrestrictedAdaptive(small),
            watchdog=80,
            seed=3,
            faults=faults,
            recovery=RecoveryPolicy(max_retries=20),
            routing_factory=_ebda_factory("negative-first"),
        )
        traffic = TrafficGenerator(
            small,
            TrafficConfig(injection_rate=0.35, packet_length=6, seed=3),
        )
        stats = sim.run(600, traffic, drain=True)
        return sim, stats

    sim_a, stats_a = recovery_scenario()
    sim_b, stats_b = recovery_scenario()
    rows.append(
        ["recovery 4x4", 1, "0.35", f"{stats_a.delivery_ratio:.3f}",
         stats_a.packets_aborted, _fmt(stats_a.avg_recovery_latency)]
    )
    checks.append(
        check_true(
            "watchdog-confirmed cyclic wait recovered by victim abort",
            stats_a.recovered_deadlocks >= 1 and stats_a.retransmissions >= 1,
            note=f"recovered={stats_a.recovered_deadlocks}"
            f" retx={stats_a.retransmissions}",
        )
    )
    checks.append(
        check_true(
            "degraded design re-verified acyclic after the link failure",
            sim_a.last_reroute_verdict is not None
            and sim_a.last_reroute_verdict.acyclic,
            note=str(sim_a.last_reroute_verdict),
        )
    )
    checks.append(
        check_eq(
            "recovery scenario delivers every packet",
            1.0,
            stats_a.delivery_ratio,
        )
    )
    checks.append(
        check_eq(
            "recovery scenario is deterministic across same-seed runs",
            stats_a.summary(16),
            stats_b.summary(16),
            note=f"routing after reroute: {sim_b.routing.name}",
        )
    )

    return ExperimentResult(
        exp_id="V7-faultsweep",
        title="Chaos sweep: runtime faults, rerouting and regressive recovery",
        text=text_table(
            ["network", "faults", "rate", "delivery", "aborted", "avg rec lat"],
            rows,
        ),
        data={"rows": rows, "sweep": report.to_dict()},
        checks=tuple(checks),
    )
