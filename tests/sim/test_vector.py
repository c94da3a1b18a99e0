"""Cycle-exactness tests: the vector backend against the reference.

Every test runs the identical configuration through both engines and
requires bit-identical ``SimStats.to_dict()`` — counters, the full
per-packet latency list in delivery order, and the deadlock declaration
cycle.
"""

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigError, EbdaError, RoutingError, SimulationError, TopologyError
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
    ScriptedTraffic,
    SweepEngine,
    TrafficConfig,
    TrafficGenerator,
    VectorSimulator,
    run_point,
)
from repro.sim.specs import NAMED_ROUTING_FACTORIES, resolve_routing_factory
from repro.sim.vector import _Batch, run_batch
from repro.routing.updown import UpDownRouting
from repro.topology import FaultyMesh, Mesh, Torus
from repro.topology.classes import NAMED_RULES, no_classes, rule_for_design

COMMITTED_CORPUS = Path(__file__).parents[1] / "fuzz" / "corpus"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

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


def _outcome(run):
    """A run's stats dict, or the class and message of what it raised."""
    try:
        return run().to_dict()
    except (RoutingError, SimulationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def batch_vs_solo(topology, routing, rule, runs, *, drain=(), **sim_kwargs):
    """Each run of one batch, its solo vector run and its reference run.

    ``runs`` holds ``(cycles, make_traffic)`` and ``drain`` a drain flag
    per run (missing flags are False); returns one (batch, solo,
    reference) triple per run, each a stats dict or the error raised.
    """
    batch = run_batch(
        topology, routing, rule,
        [(cycles, make()) for cycles, make in runs],
        drain=drain, **sim_kwargs,
    )
    flags = list(drain) + [False] * (len(runs) - len(drain))
    triples = []
    for (cycles, make), drains, got in zip(runs, flags, batch):
        if isinstance(got, Exception):
            got = f"{type(got).__name__}: {got}"
        else:
            got = got.to_dict()
        solo, ref = (
            _outcome(lambda: cls(topology, routing, rule, **sim_kwargs).run(
                cycles, make(), drain=drains
            ))
            for cls in (VectorSimulator, NetworkSimulator)
        )
        triples.append((got, solo, ref))
    return triples


def _bernoulli(topology, rate, seed):
    return lambda: TrafficGenerator(
        topology, TrafficConfig(injection_rate=rate, packet_length=4, seed=seed)
    )


def _saturating(topology, rate, seed):
    return lambda: TrafficGenerator(
        topology, TrafficConfig(injection_rate=rate, packet_length=8, seed=seed)
    )


def _witness_network(stem):
    design = load_entry(COMMITTED_CORPUS / f"{stem}.json").design
    seq, turnset = design.compile()
    topology, rule = design.topology(), design.class_rule()
    routing = TurnTableRouting(topology, seq, rule, turnset=turnset, validate=False)
    return topology, routing, rule


class TestBatchParity:
    """Every replica of a batch equals its solo vector and reference runs."""

    @pytest.mark.parametrize(
        "name,shape,rate", CATALOG_POINTS, ids=[point[0] for point in CATALOG_POINTS]
    )
    def test_catalog_point_seeds(self, name, shape, rate):
        topology = Mesh(*shape)
        routing = resolve_routing_factory(name)(topology)
        seeds = (3, 4, 5) if len(shape) == 3 else (3, 4)
        triples = batch_vs_solo(
            topology, routing, rule_for_design(name),
            [(300, _bernoulli(topology, rate, seed)) for seed in seeds],
            watchdog=500, buffer_depth=4,
        )
        for got, solo, ref in triples:
            assert got == solo == ref
            assert got["packets_delivered"] > 0
        # The seeds draw different traffic: the replicas really differ.
        assert len({repr(got) for got, _, _ in triples}) == len(seeds)

    def test_replicas_with_different_cycle_limits(self, mesh4):
        routing = TurnTableRouting(mesh4, catalog.p3_west_first())
        limits = (120, 400, 0, 1, 250)
        triples = batch_vs_solo(
            mesh4, routing, no_classes,
            [(cycles, _bernoulli(mesh4, 0.1, seed)) for seed, cycles in enumerate(limits)],
            atomic_buffers=True,
        )
        for cycles, (got, solo, ref) in zip(limits, triples):
            assert got == solo == ref
            assert got["cycles"] == cycles

    def test_deadlocked_replica_beside_live_ones(self):
        topology, routing, rule = _witness_network("fuzz-720dd5f1c346")
        runs = [(400, _bernoulli(topology, rate, seed))
                for rate, seed in ((0.3, 1), (0.3, 0), (0.05, 0))]
        triples = batch_vs_solo(
            topology, routing, rule, runs, watchdog=150, buffer_depth=2
        )
        for got, solo, ref in triples:
            assert got == solo == ref
        assert [got["deadlocked"] for got, _, _ in triples] == [False, True, False]
        assert triples[1][0]["deadlock_declared_at"] < 400
        assert [got["cycles"] for got, _, _ in triples] == [
            400, triples[1][0]["deadlock_declared_at"], 400
        ]

    def test_replicas_keep_their_own_deadlock_cycle(self, mesh4):
        routing = UnrestrictedAdaptive(mesh4)
        runs = [(800, _bernoulli(mesh4, 0.3, seed)) for seed in (3, 4)]
        triples = batch_vs_solo(
            mesh4, routing, no_classes, runs, watchdog=200, buffer_depth=2
        )
        for got, solo, ref in triples:
            assert got == solo == ref
            assert got["deadlocked"]
        declared = {got["deadlock_declared_at"] for got, _, _ in triples}
        assert len(declared) == 2

    def test_dead_end_stops_only_its_replica(self):
        topology, routing, rule = _witness_network("fuzz-4df2a24b2051")
        runs = [(400, _bernoulli(topology, rate, seed))
                for rate, seed in ((0.01, 0), (0.3, 0), (0.01, 0))]
        triples = batch_vs_solo(
            topology, routing, rule, runs, watchdog=150, buffer_depth=2
        )
        for got, solo, ref in triples:
            assert got == solo
        live, dead, twin = (got for got, _, _ in triples)
        assert dead.startswith("RoutingError: ")
        assert triples[1][2].startswith("RoutingError")  # the reference agrees
        assert live == twin == triples[0][2]
        assert live["cycles"] == 400

    def test_saturated_replicas_drain_beside_live_ones(self, mesh4):
        # At 0.3 the 4x4 mesh saturates: its drain runs far past the
        # cycle limit, while the other replicas stop or drain early.
        routing = xy_routing(mesh4)
        runs = [(200, _bernoulli(mesh4, rate, seed))
                for rate, seed in ((0.3, 1), (0.05, 2), (0.3, 3), (0.3, 1))]
        triples = batch_vs_solo(
            mesh4, routing, no_classes, runs, drain=(True, True, False, True)
        )
        for got, solo, ref in triples:
            assert got == solo == ref
        saturated, light, undrained, _twin = (got for got, _, _ in triples)
        assert saturated["cycles"] > light["cycles"] > 200
        assert saturated["packets_delivered"] == saturated["packets_injected"]
        assert undrained["cycles"] == 200
        assert undrained["packets_delivered"] < undrained["packets_injected"]
        assert triples[3][0] == saturated

    def test_drain_limit_stops_each_replica(self, mesh4):
        # ``run_batch`` drains to the solo default limit; the limit itself
        # is ``_drive``'s, so drive a kernel with a short one directly.
        routing = xy_routing(mesh4)
        makes = [_bernoulli(mesh4, 0.3, seed) for seed in (1, 2)]
        kernel = _Batch(len(makes), mesh4, routing, no_classes)
        kernel._drive([200, 200], [make() for make in makes], [True, True], drain_limit=7)
        assert kernel._errors == [None, None]
        for make, got in zip(makes, kernel._stats):
            solo, ref = (
                cls(mesh4, routing, no_classes).run(200, make(), drain=True, drain_limit=7)
                for cls in (VectorSimulator, NetworkSimulator)
            )
            assert got.to_dict() == solo.to_dict() == ref.to_dict()
            assert got.cycles == 207

    def test_deadlocked_replica_with_drain(self):
        topology, routing, rule = _witness_network("fuzz-720dd5f1c346")
        runs = [(400, _bernoulli(topology, rate, seed))
                for rate, seed in ((0.3, 1), (0.3, 0), (0.05, 0))]
        triples = batch_vs_solo(
            topology, routing, rule, runs, drain=(True, True, True),
            watchdog=150, buffer_depth=2,
        )
        for got, solo, ref in triples:
            assert got == solo == ref
        assert [got["deadlocked"] for got, _, _ in triples] == [False, True, False]
        assert triples[1][0]["cycles"] == triples[1][0]["deadlock_declared_at"] < 400

    def test_zero_cycles_with_drain(self, mesh4):
        routing = TurnTableRouting(mesh4, catalog.p3_west_first())
        runs = [(cycles, _bernoulli(mesh4, 0.1, seed))
                for seed, cycles in enumerate((0, 0, 150))]
        triples = batch_vs_solo(
            mesh4, routing, no_classes, runs, drain=(True, False, True)
        )
        for got, solo, ref in triples:
            assert got == solo == ref
        assert [got["cycles"] for got, _, _ in triples[:2]] == [0, 0]
        assert triples[0][0]["packets_injected"] == 0
        assert triples[2][0]["cycles"] > 150

    def test_empty_batch_and_out_of_scope_config(self, mesh4):
        assert run_batch(mesh4, xy_routing(mesh4), no_classes, []) == []
        with pytest.raises(ConfigError, match="selection"):
            run_batch(
                mesh4, xy_routing(mesh4), no_classes,
                [(10, _bernoulli(mesh4, 0.1, 0)())], selection=object(),
            )

    # Arrival stamps exist only at pipeline delay > 0; these runs read them.

    @pytest.mark.parametrize("delay", [1, 2])
    def test_pipeline_delay_saturated_multi_candidate(self, delay):
        # V2's stress regime: long worms, shallow buffers, saturating load.
        topology = Mesh(4, 4)
        routing = resolve_routing_factory("west-first-vcs")(topology)
        runs = [(300, _saturating(topology, rate, seed))
                for rate, seed in ((0.32, 1), (0.2, 2), (0.32, 3))]
        triples = batch_vs_solo(
            topology, routing, rule_for_design("west-first-vcs"), runs,
            pipeline_delay=delay, buffer_depth=2, watchdog=200,
        )
        for got, solo, ref in triples:
            assert got == solo == ref
            assert 0 < got["packets_delivered"] < got["packets_injected"] // 2

    @pytest.mark.parametrize("delay", [1, 2])
    def test_pipeline_delay_replicas_with_different_cycle_limits(self, mesh4, delay):
        limits = (120, 400, 0, 1, 250)
        triples = batch_vs_solo(
            mesh4, MinimalFullyAdaptive(mesh4), no_classes,
            [(cycles, _bernoulli(mesh4, 0.12, seed)) for seed, cycles in enumerate(limits)],
            drain=[True, False, True, False, False], pipeline_delay=delay,
        )
        for cycles, (got, solo, ref) in zip(limits, triples):
            assert got == solo == ref
        assert [got["cycles"] for got, _, _ in triples][1:] == [400, 0, 1, 250]

    @pytest.mark.parametrize("delay", [1, 2])
    def test_pipeline_delay_atomic_buffers(self, mesh4, delay):
        routing = TurnTableRouting(mesh4, catalog.p3_west_first())
        triples = batch_vs_solo(
            mesh4, routing, no_classes,
            [(300, _bernoulli(mesh4, rate, seed)) for rate, seed in ((0.15, 1), (0.3, 2))],
            atomic_buffers=True, pipeline_delay=delay, buffer_depth=2,
        )
        for got, solo, ref in triples:
            assert got == solo == ref
            assert got["packets_delivered"] > 0



class TestSweepBatches:
    """A sweep's vector misses on one network run as one batch kernel and
    give what running the points one by one gives."""

    RATES = (0.02, 0.08, 0.2)

    @pytest.mark.parametrize("routing", ["west-first-vcs", "negative-first"])
    def test_sweep_matches_its_points(self, routing, tmp_path):
        topology = Mesh(6, 6)
        config = RunConfig(cycles=300, seed=4, backend="vector")
        swept = SweepEngine(cache=tmp_path / "sweep").sweep(
            topology, routing, self.RATES, config
        )
        alone = SweepEngine(cache=tmp_path / "points")
        for rate, point in zip(self.RATES, swept.points):
            assert not point.cached
            got = point.result.stats.to_dict()
            for backend in ("reference", "vector"):
                solo = run_point(
                    topology, routing, replace(config.with_rate(rate), backend=backend)
                )
                assert got == solo.stats.to_dict()
            alone.run_point(topology, routing, config.with_rate(rate))
        # The 0.2 point saturates and drains past its cycle limit.
        assert swept.results[-1].stats.cycles > config.cycles

        def entries(directory):
            return {
                path.name: {k: v for k, v in json.loads(path.read_text()).items()
                            if k != "wall_time"}
                for path in directory.glob("*.json")
            }

        assert len(entries(tmp_path / "sweep")) == len(self.RATES)
        assert entries(tmp_path / "sweep") == entries(tmp_path / "points")
        shares = {round(point.wall_time, 12) for point in swept.points}
        assert len(shares) == 1  # each point's equal share of the batch

    def test_dead_end_raises_the_serial_error(self, monkeypatch):
        topology, routing, rule = _witness_network("fuzz-4df2a24b2051")
        monkeypatch.setitem(NAMED_ROUTING_FACTORIES, "sweep-dead-end", lambda t: routing)
        config = RunConfig(cycles=60, seed=5, watchdog=150, buffer_depth=2, backend="vector")
        rates = (0.01, 0.02, 0.05)
        serial = []
        for rate in rates:
            try:
                run_point(topology, "sweep-dead-end", config.with_rate(rate), rule)
                serial.append(None)
            except RoutingError as exc:
                serial.append(str(exc))
        # The first point runs; the other two dead-end, at different packets.
        assert serial[0] is None and None not in serial[1:]
        assert serial[1] != serial[2]
        with pytest.raises(RoutingError) as info:
            SweepEngine().sweep(topology, "sweep-dead-end", rates, config, rule)
        assert str(info.value) == serial[1]


class TestOneKernel:
    """Batches and solo runs step through the same phases."""

    def test_each_phase_is_defined_once(self):
        tree = ast.parse((SRC / "sim" / "vector.py").read_text())
        defined = [
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for phase in ("_eject_phase", "_allocation_phase", "_traversal_phase",
                      "_execute_moves", "_advance"):
            assert defined.count(phase) == 1, phase

    def test_oracle_replays_only_through_run_batch(self):
        tree = ast.parse((SRC / "fuzz" / "oracle.py").read_text())
        imported = {
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert [name for module, name in imported if module == "repro.sim.vector"] == [
            "run_batch"
        ]
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert not names & {"VectorSimulator", "simulator_class", "run_point"}
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_batch"
        ]
        assert len(calls) == 1
        constants = {
            node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
        }
        assert "vector" not in constants


class TestOfferPath:
    """Both backends treat unknown and failed routers alike, solo and batched."""

    @pytest.mark.parametrize(
        "src,dst", [((9, 9), (0, 0)), ((0, 0), (4, 0)), ((1, 1), (0, -1))]
    )
    def test_unknown_router_raises_the_same_error(self, mesh4, src, dst):
        def traffic():
            return ScriptedTraffic({0: [((0, 0), (3, 3), 2)], 2: [(src, dst, 2)]})

        raised = []
        for run in (
            lambda: NetworkSimulator(mesh4, xy_routing(mesh4)).run(10, traffic()),
            lambda: VectorSimulator(mesh4, xy_routing(mesh4)).run(10, traffic()),
            lambda: run_batch(
                mesh4, xy_routing(mesh4), no_classes, [(10, traffic()), (10, traffic())]
            ),
        ):
            with pytest.raises(TopologyError) as info:
                run()
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] == raised[2]
        assert "is not in the topology" in raised[0][1]

    def test_failed_router_loses_its_packets_on_both_backends(self):
        topology = FaultyMesh(Mesh(4, 4), failed=[], failed_nodes=[(1, 1)])
        routing = UpDownRouting(topology)

        def traffic(seed):
            # Drawn over the healthy mesh: some packets touch the failed router.
            return lambda: TrafficGenerator(
                Mesh(4, 4), TrafficConfig(injection_rate=0.05, packet_length=4, seed=seed)
            )

        triples = batch_vs_solo(
            topology, routing, routing.class_rule,
            [(300, traffic(3)), (300, traffic(4))], drain=[True, True],
        )
        for got, solo, ref in triples:
            assert got == solo == ref
            assert got["packets_lost"] > 0
            assert got["packets_delivered"] + got["packets_lost"] == got["packets_injected"]


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
