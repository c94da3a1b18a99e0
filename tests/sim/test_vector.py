"""Cycle-exactness tests: the vector backend against the reference.

Every test runs the identical configuration through both engines and
requires bit-identical ``SimStats.to_dict()`` — counters, the full
per-packet latency list in delivery order, and the deadlock declaration
cycle.
"""

from pathlib import Path

import pytest

from repro.errors import ConfigError, EbdaError, RoutingError, SimulationError
from repro.fuzz.corpus import load_entry
from repro.routing import (
    MinimalFullyAdaptive,
    OddEven,
    TurnTableRouting,
    UnrestrictedAdaptive,
    xy_routing,
)
from repro.core import catalog
from repro.core.torus_designs import dateline_design
from repro.sim import (
    NetworkSimulator,
    RunConfig,
    TrafficConfig,
    TrafficGenerator,
    VectorSimulator,
    run_point,
)
from repro.sim.specs import resolve_routing_factory
from repro.topology import Mesh, Torus
from repro.topology.classes import NAMED_RULES, no_classes, rule_for_design

COMMITTED_CORPUS = Path(__file__).parents[1] / "fuzz" / "corpus"

#: (design name, mesh shape, injection rate): deterministic through
#: fully adaptive, 2D and 3D, plus a virtual-channel design.
CATALOG_POINTS = (
    ("xy", (8, 8), 0.10),
    ("west-first", (8, 8), 0.08),
    ("north-last", (6, 6), 0.08),
    ("negative-first", (6, 6), 0.08),
    ("odd-even", (6, 6), 0.08),
    ("dyxy", (8, 8), 0.06),
    ("fig9b", (3, 3, 3), 0.05),
    ("west-first-vcs", (6, 6), 0.08),
)


def both_backends(topology, routing_factory, rule=no_classes, *, cycles=300,
                  rate=0.08, seed=3, drain=True, errors=(), **sim_kwargs):
    """Run the same point through both engines; return the two stat dicts
    (the class name instead, where a run raises one of ``errors``)."""
    results = []
    for cls in (NetworkSimulator, VectorSimulator):
        sim = cls(topology, routing_factory(topology), rule, seed=seed, **sim_kwargs)
        traffic = TrafficGenerator(
            topology,
            TrafficConfig(injection_rate=rate, packet_length=4, seed=seed),
        )
        try:
            results.append(sim.run(cycles, traffic, drain=drain).to_dict())
        except errors as exc:
            results.append(type(exc).__name__)
    return results


class TestParity:
    def test_xy_mesh(self, mesh4):
        ref, vec = both_backends(mesh4, xy_routing)
        assert ref == vec

    def test_west_first_atomic_buffers(self, mesh4):
        design = catalog.p3_west_first()

        def factory(t):
            return TurnTableRouting(t, design)

        ref, vec = both_backends(mesh4, factory, atomic_buffers=True, rate=0.12)
        assert ref == vec

    def test_fully_adaptive_8x8(self):
        mesh = Mesh(8, 8)
        ref, vec = both_backends(mesh, MinimalFullyAdaptive, cycles=400, rate=0.06)
        assert ref == vec
        assert vec["packets_delivered"] > 0

    def test_odd_even_uses_in_channel(self, mesh4):
        # OddEven reads the arrival channel: exercises per-site memos.
        ref, vec = both_backends(mesh4, OddEven, rate=0.1)
        assert ref == vec

    def test_dateline_torus(self):
        torus = Torus(4, 4)
        design = dateline_design(2)
        rule = NAMED_RULES["dateline"]

        def factory(t):
            return TurnTableRouting(t, design, rule)

        ref, vec = both_backends(torus, factory, rule, rate=0.08)
        assert ref == vec

    def test_pipeline_delay(self, mesh4):
        ref, vec = both_backends(mesh4, xy_routing, pipeline_delay=2, rate=0.06)
        assert ref == vec

    def test_deadlock_declared_same_cycle(self, mesh4):
        # The negative control deadlocks under load; the declaration
        # cycle (and everything else) must match exactly.
        ref, vec = both_backends(
            mesh4, UnrestrictedAdaptive, cycles=800, rate=0.3,
            watchdog=200, buffer_depth=2, drain=False,
        )
        assert ref == vec
        assert ref["deadlocked"]
        assert ref["deadlock_declared_at"] is not None


class TestCatalogAndCorpusParity:
    """The result cache keys omit the backend; these points keep that honest."""

    @pytest.mark.parametrize(
        "name,shape,rate", CATALOG_POINTS, ids=[point[0] for point in CATALOG_POINTS]
    )
    def test_catalog_point(self, name, shape, rate):
        ref, vec = both_backends(
            Mesh(*shape), resolve_routing_factory(name), rule_for_design(name),
            cycles=600, rate=rate, seed=3, watchdog=500, buffer_depth=4,
        )
        assert ref == vec

    @pytest.mark.parametrize(
        "path", sorted(COMMITTED_CORPUS.glob("fuzz-*.json")), ids=lambda p: p.stem
    )
    def test_corpus_witness(self, path):
        # Committed witnesses deadlock or are otherwise adversarial:
        # saturating traffic, shallow buffers, no drain.
        design = load_entry(path).design
        seq, turnset = design.compile()
        topology, rule = design.topology(), design.class_rule()
        try:
            routing = TurnTableRouting(topology, seq, rule, turnset=turnset, validate=False)
        except EbdaError as exc:
            pytest.skip(f"unroutable build: {exc}")
        ref, vec = both_backends(
            topology, lambda _t: routing, rule,
            cycles=400, rate=0.3, seed=0, watchdog=150, buffer_depth=2,
            drain=False, errors=(RoutingError, SimulationError),
        )
        assert ref == vec


class TestRunPointBackend:
    def test_backend_field_selects_vector(self, mesh4):
        from dataclasses import replace

        cfg = RunConfig(cycles=300, injection_rate=0.08, seed=5)
        ref = run_point(mesh4, "xy", cfg)
        vec = run_point(mesh4, "xy", replace(cfg, backend="vector"))
        assert ref.stats.to_dict() == vec.stats.to_dict()

    def test_unknown_backend_rejected(self, mesh4):
        with pytest.raises(ConfigError, match="unknown backend"):
            run_point(mesh4, "xy", RunConfig(cycles=100, backend="warp"))


class TestUnsupportedFeatures:
    def test_metrics_refused_up_front(self, mesh4):
        with pytest.raises(ConfigError, match="metrics"):
            run_point(
                mesh4, "xy", RunConfig(cycles=100, metrics=True, backend="vector")
            )

    def test_faults_refused_up_front(self, mesh4):
        from repro.sim import FaultEvent, FaultSchedule

        faults = FaultSchedule([FaultEvent(10, "drop")], seed=0)
        with pytest.raises(ConfigError, match="fault"):
            run_point(
                mesh4, "xy", RunConfig(cycles=100, faults=faults, backend="vector")
            )

    def test_non_first_selection_refused(self, mesh4):
        with pytest.raises(ConfigError, match="selection"):
            run_point(
                mesh4, "xy",
                RunConfig(cycles=100, selection="random", backend="vector"),
            )

    def test_constructor_refuses_tracer(self, mesh4):
        from repro.sim import Trace

        with pytest.raises(ConfigError):
            VectorSimulator(mesh4, xy_routing(mesh4), tracer=Trace())
