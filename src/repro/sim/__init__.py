"""Cycle-based flit-level wormhole network simulator.

The package is a lazy facade (PEP 562), like :mod:`repro` itself: each
name below is imported from its home module on first use, so code that
only needs one corner of the simulator, or none of it, loads no more.
"""

from repro import _facade

#: Home module -> the names this facade re-exports from it.
_EXPORTS = {
    "repro.sim.backend": (
        "BackendInfo",
        "backends",
        "check_run_config",
        "resolve_backend",
        "simulator_class",
    ),
    "repro.sim.buffers": ("WireState",),
    "repro.sim.deadlock": (
        "build_waitfor_graph",
        "cycle_witness",
        "held_wires",
        "waitfor_cycle",
    ),
    "repro.sim.faults": ("FaultEvent", "FaultSchedule", "RecoveryPolicy"),
    "repro.routing.packet": ("Flit", "Packet"),
    "repro.sim.metrics": (
        "DeadlockForensics",
        "MetricsCollector",
        "TimeSeries",
        "load_metrics",
        "render_forensics",
        "render_heatmap",
        "render_summary",
    ),
    "repro.sim.network": ("NetworkSimulator",),
    "repro.sim.patterns": (
        "NAMED_PATTERNS",
        "TrafficPattern",
        "bit_complement",
        "bit_reverse",
        "hotspot",
        "neighbor",
        "rotate90",
        "shuffle",
        "tornado",
        "transpose",
        "uniform",
    ),
    "repro.sim.parallel": (
        "PointOutcome",
        "ResultCache",
        "SweepEngine",
        "SweepReport",
        "cache_key",
        "default_cache_dir",
    ),
    "repro.sim.runner": (
        "RunConfig",
        "RunResult",
        "compare_table",
        "run_point",
        "run_points",
        "saturation_rate",
    ),
    "repro.sim.specs": (
        "NAMED_ROUTING_FACTORIES",
        "EbdaDesignFactory",
        "RoutingFactory",
        "register_routing_factory",
        "resolve_pattern",
        "resolve_routing_factory",
        "resolve_selection",
    ),
    "repro.sim.stats": ("SimStats",),
    "repro.sim.trace": ("Trace", "TraceEvent"),
    "repro.sim.traffic": ("ScriptedTraffic", "TrafficConfig", "TrafficGenerator"),
    "repro.sim.vector": ("VectorSimulator",),
}

__getattr__, __dir__ = _facade.lazy_exports(globals(), _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
