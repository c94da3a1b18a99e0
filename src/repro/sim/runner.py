"""Experiment runner: simulation points, saturation, comparison tables.

This is the harness the performance benchmarks (V2/V3 in DESIGN.md) drive.
Every run is fully described by a :class:`RunConfig`, making experiments
reproducible and easy to tabulate.

``RunConfig`` is picklable — the parallel engine in
:mod:`repro.sim.parallel` ships configs to worker processes — provided the
callable-valued fields hold *named specs* (``pattern="uniform"``,
``selection="first"``, ``routing_factory="negative-first"``; see
:mod:`repro.sim.specs`) or module-level functions.  Raw lambdas and
closures keep working for in-process runs but force the serial fallback
and opt out of result caching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import EbdaError, SimulationError
from repro.routing.base import RoutingFunction
from repro.routing.selection import SelectionPolicy
from repro.sim.backend import simulator_class
from repro.sim.faults import FaultSchedule, RecoveryPolicy
from repro.sim.image import spec_network
from repro.sim.patterns import TrafficPattern
from repro.sim.specs import (
    RoutingFactory,
    resolve_pattern,
    resolve_routing_factory,
    resolve_selection,
    spec_token,
)
from repro.sim.stats import SimStats
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes

__all__ = [
    "RoutingFactory",
    "RunConfig",
    "RunResult",
    "compare_table",
    "run_point",
    "run_points",
    "saturation_rate",
]


@dataclass
class RunConfig:
    """Everything needed to reproduce one simulation point.

    The callable-valued fields (``pattern``, ``selection``,
    ``routing_factory``) also accept registry names — the picklable,
    cacheable form; see :mod:`repro.sim.specs`.
    """

    cycles: int = 2000
    injection_rate: float = 0.05
    packet_length: int = 4
    pattern: TrafficPattern | str = "uniform"
    buffer_depth: int = 4
    selection: SelectionPolicy | str = "first"
    atomic_buffers: bool = False
    watchdog: int = 500
    drain: bool = True
    seed: int = 1
    #: Optional runtime fault schedule (link/router failures, drops).
    faults: FaultSchedule | None = None
    #: Optional regressive deadlock/fault recovery policy.
    recovery: RecoveryPolicy | None = None
    #: Rebuilds routing over the degraded topology after permanent faults.
    routing_factory: RoutingFactory | str | None = None
    #: Telemetry: ``True`` builds a fresh
    #: :class:`~repro.sim.metrics.MetricsCollector` per point (sampling
    #: every ``sample_every`` cycles); a ready collector is used as-is
    #: (single points only — a collector observes exactly one simulator).
    #: None (default) keeps every telemetry hook a no-op.  Metered points
    #: are uncacheable (see :func:`repro.sim.specs.spec_token`).
    metrics: "object | bool | None" = None
    #: Sampling interval (cycles) when ``metrics=True``.
    sample_every: int = 100
    #: ``True`` attaches a fresh :class:`~repro.sim.trace.Trace` per point,
    #: left on :attr:`RunResult.trace`.  Like ``metrics``, it observes
    #: without changing the result, and a traced point is uncacheable.
    trace: bool = False
    #: Traced-workload mode: a :class:`~repro.chaos.workloads.WorkloadTrace`
    #: (or a :data:`~repro.chaos.workloads.NAMED_WORKLOADS` name) replaces
    #: the Bernoulli :class:`~repro.sim.traffic.TrafficGenerator` —
    #: ``injection_rate``/``packet_length``/``pattern`` are then ignored in
    #: favour of the trace's own schedule.  Traced points stay cacheable:
    #: traces token-ise by name or content digest.
    workload: "object | str | None" = None
    #: Simulation engine: ``"reference"`` (per-flit objects, full feature
    #: set) or ``"vector"`` (struct-of-arrays numpy kernel, cycle-exact
    #: on its supported subset — see :func:`repro.sim.backend.backends`).
    #: Cycle-exact backends share result-cache entries: the backend name
    #: is deliberately absent from the cache key.
    backend: str = "reference"

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise SimulationError(f"cycles must be >= 0, got {self.cycles}")

    def with_rate(self, rate: float) -> "RunConfig":
        return replace(self, injection_rate=rate)


@dataclass
class RunResult:
    """A simulation point: the config used plus the resulting stats."""

    routing_name: str
    config: RunConfig
    stats: SimStats
    n_nodes: int
    #: The finalized collector when the point ran metered (None otherwise,
    #: including cache hits — a hit replays stats, not samples).
    metrics: "object | None" = None
    #: The event trace when the point ran with ``trace=True`` (None
    #: otherwise, including cache hits).
    trace: "object | None" = None
    #: The deadlock verdict on the last design rebuilt after a permanent
    #: fault (None when nothing was rerouted, and on cache hits).
    reroute_verdict: "object | None" = None

    @property
    def avg_latency(self) -> float:
        return self.stats.avg_total_latency

    @property
    def throughput(self) -> float:
        return self.stats.throughput(self.n_nodes)

    @property
    def deadlocked(self) -> bool:
        return self.stats.deadlocked

    def row(self) -> str:
        lat = f"{self.avg_latency:8.1f}" if self.stats.latencies else "     n/a"
        status = "DEADLOCK" if self.deadlocked else "ok"
        return (
            f"{self.routing_name:28s} rate={self.config.injection_rate:.3f}"
            f" lat={lat} thr={self.throughput:.4f} [{status}]"
        )


def run_point(
    topology: Topology,
    routing: RoutingFunction | RoutingFactory | str,
    config: RunConfig,
    rule: ClassRule = no_classes,
) -> RunResult:
    """Run one simulation point: :func:`run_points` of one config."""
    ((result, _seconds),) = run_points(topology, routing, [config], rule)
    return result


def run_points(
    topology: Topology,
    routing: RoutingFunction | RoutingFactory | str,
    configs: Sequence[RunConfig],
    rule: ClassRule = no_classes,
) -> list[tuple[RunResult, float]]:
    """Run points on one network spec: the only code that builds simulators.

    ``routing`` may be a ready :class:`RoutingFunction`, a factory, or a
    named routing spec (``"xy"``, any catalog design name, arrow
    notation) resolved via :mod:`repro.sim.specs`.  A factory's routing
    comes from :func:`~repro.sim.image.spec_network`, once per config, so
    points on content-equal networks share one routing instance and,
    through it, one network image.

    Points that share that routing instance and every kernel-side option
    (:func:`_kernel_key`) run as the replicas of one
    :func:`~repro.sim.vector.run_batch` kernel; every other point runs
    alone on its backend's simulator.  Either way each point's stats are
    those of its solo run.  Returns, per config and in order, its result
    and the seconds spent on it — a batched point's equal share of its
    batch's, routing resolution included.  Errors surface in
    config order: the first failing point's error is raised, as running
    the points one by one would raise it.  Backend capabilities are
    checked by :meth:`~repro.sim.parallel.SweepEngine.run_many`; a direct
    call with a config the backend lacks is refused by the simulator's
    constructor.
    """
    configs = list(configs)
    seconds = [0.0] * len(configs)
    if isinstance(routing, RoutingFunction):
        networks = [(topology, routing, rule)] * len(configs)
    else:
        factory = resolve_routing_factory(routing)
        networks = []
        for i in range(len(configs)):
            start = time.perf_counter()
            networks.append(spec_network(topology, factory, rule))
            seconds[i] = time.perf_counter() - start
    batches: dict[tuple, list[int]] = {}
    for i, (config, (_topology, shared, _rule)) in enumerate(zip(configs, networks)):
        key = _kernel_key(config, shared)
        if key is not None:
            batches.setdefault(key, []).append(i)
    #: First point of each batch of two or more -> the batch's points.
    batch_at = {members[0]: members for members in batches.values() if len(members) > 1}

    outcomes: list[RunResult | Exception | None] = [None] * len(configs)
    for i, config in enumerate(configs):
        start = time.perf_counter()
        if i in batch_at:
            members = batch_at[i]
            got = _run_batched(networks[i], [configs[j] for j in members])
            elapsed = time.perf_counter() - start + sum(seconds[j] for j in members)
            for j, outcome in zip(members, got):
                outcomes[j] = outcome
                seconds[j] = elapsed / len(members)
        elif outcomes[i] is None:  # not run yet as part of an earlier batch
            outcomes[i] = _run_alone(networks[i], config)
            seconds[i] += time.perf_counter() - start
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
    return list(zip(outcomes, seconds))  # type: ignore[arg-type]


def _kernel_key(config: RunConfig, routing: object) -> tuple | None:
    """What the points of one batch kernel must share, or None for a point
    that runs alone.

    A batch steps one routing instance (and so one topology and rule) at
    one buffer depth, selection, buffer discipline and watchdog.  Only
    plain vector points batch: an observed (metrics, trace) or faulted
    point needs a simulator of its own.  Whether the key is None depends
    on ``config`` alone.
    """
    selection = spec_token("selection", config.selection)
    if (
        config.backend != "vector"
        or selection is None
        or config.trace
        or config.metrics not in (None, False)
        or config.faults is not None
        or config.recovery is not None
    ):
        return None
    return (id(routing), config.buffer_depth, selection, config.atomic_buffers, config.watchdog)


def _traffic(topology: Topology, config: RunConfig) -> "object":
    """A point's traffic: its workload trace, or its Bernoulli generator."""
    if config.workload is not None:
        # Traced mode: the workload's own deterministic schedule replaces
        # the Bernoulli injection process (lazy import — chaos depends on
        # sim, so the reverse edge must not exist at module level).
        from repro.chaos.workloads import resolve_workload

        return resolve_workload(config.workload).materialize(topology, config.cycles)
    return TrafficGenerator(
        topology,
        TrafficConfig(
            injection_rate=config.injection_rate,
            packet_length=config.packet_length,
            pattern=resolve_pattern(config.pattern),
            seed=config.seed + 7919,
        ),
    )


def _run_alone(network: tuple, config: RunConfig) -> RunResult:
    """One point on its own simulator."""
    topology, routing, rule = network
    routing_factory = config.routing_factory
    if isinstance(routing_factory, str):
        routing_factory = resolve_routing_factory(routing_factory)
    collector = config.metrics
    if collector is True:
        from repro.sim.metrics import MetricsCollector

        collector = MetricsCollector(sample_every=config.sample_every)
    elif collector is False:
        collector = None
    tracer = None
    if config.trace:
        from repro.sim.trace import Trace

        tracer = Trace()
    sim = simulator_class(config.backend)(
        topology,
        routing,
        rule,
        buffer_depth=config.buffer_depth,
        selection=resolve_selection(config.selection),
        atomic_buffers=config.atomic_buffers,
        watchdog=config.watchdog,
        seed=config.seed,
        tracer=tracer,
        metrics=collector,
        faults=config.faults,
        recovery=config.recovery,
        routing_factory=routing_factory,
    )
    stats = sim.run(config.cycles, _traffic(topology, config), drain=config.drain)
    if collector is not None:
        collector.finalize()
    return RunResult(
        routing.name, config, stats, len(topology.nodes),
        metrics=collector, trace=tracer,
        reroute_verdict=getattr(sim, "last_reroute_verdict", None),
    )


def _run_batched(network: tuple, configs: list[RunConfig]) -> list[RunResult | Exception]:
    """Points of one :func:`_kernel_key` as the replicas of one vector
    kernel: each point's result, or the error it raised."""
    from repro.sim.vector import run_batch

    topology, routing, rule = network
    outcomes: list = []
    for config in configs:
        try:
            outcomes.append(_traffic(topology, config))
        except EbdaError as exc:  # this point's error, raised in its turn
            outcomes.append(exc)
    live = [k for k, traffic in enumerate(outcomes) if not isinstance(traffic, Exception)]
    head = configs[0]
    stats = run_batch(
        topology, routing, rule,
        [(configs[k].cycles, outcomes[k]) for k in live],
        drain=[configs[k].drain for k in live],
        buffer_depth=head.buffer_depth,
        selection=resolve_selection(head.selection),
        atomic_buffers=head.atomic_buffers,
        watchdog=head.watchdog,
    )
    for k, got in zip(live, stats):
        outcomes[k] = (
            got if isinstance(got, Exception)
            else RunResult(routing.name, configs[k], got, len(topology.nodes))
        )
    return outcomes


def saturation_rate(
    results: Sequence[RunResult],
    *,
    latency_factor: float = 3.0,
) -> float | None:
    """First injection rate whose latency exceeds ``latency_factor`` x the
    zero-load latency (or that deadlocks); None when never saturated.

    The zero-load baseline is the *minimum-rate* point with any delivered
    packets — not merely the first element — so a sweep supplied in
    descending (or shuffled) rate order, or one whose early points sit
    above saturation, cannot mislabel the curve.  That baseline point is
    itself saturated when its packets already wait ``latency_factor`` x
    their network latency in total: a sweep whose every point is past
    saturation reports its lowest rate, not None.
    """
    measured = [r for r in results if r.stats.latencies]
    if not measured:
        return None
    lowest = min(measured, key=lambda r: r.config.injection_rate)
    base = lowest.avg_latency
    for r in sorted(results, key=lambda r: r.config.injection_rate):
        if r.deadlocked:
            return r.config.injection_rate
        if r is lowest and base > latency_factor * r.stats.avg_network_latency:
            return r.config.injection_rate
        if r.stats.latencies and r.avg_latency > latency_factor * base:
            return r.config.injection_rate
    return None


def compare_table(results_by_algo: dict[str, Sequence[RunResult]]) -> str:
    """Multi-algorithm comparison table (rows = rates, cols = algorithms)."""
    algos = list(results_by_algo)
    if not algos:
        return "(no results)"
    rates = [r.config.injection_rate for r in results_by_algo[algos[0]]]
    header = "rate     " + "  ".join(f"{a:>22s}" for a in algos)
    lines = [header]
    for i, rate in enumerate(rates):
        cells = []
        for a in algos:
            r = results_by_algo[a][i]
            if r.deadlocked:
                cells.append(f"{'DEADLOCK':>22s}")
            elif r.stats.latencies:
                cells.append(f"{r.avg_latency:>14.1f} cycles")
            else:
                cells.append(f"{'n/a':>22s}")
        lines.append(f"{rate:<8.3f} " + "  ".join(cells))
    return "\n".join(lines)
