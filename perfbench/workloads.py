"""The benchmark's three closed-loop workloads.

Each workload builds its inputs once from the seed (its set-up), then
runs *passes*: one pass sends every input through the program, one
operation after another, each starting when the previous one returns.
Every pass of a run repeats the same inputs, so passes are comparable
with each other and the outcome digest of every pass must equal the
first one's.

An operation is one call a user of the library makes: verifying,
linting or existence-checking one design, certifying the symbolic
registry, one sweep point, one fuzz trial, one chaos trial.  Each is
timed and checked; a failed check marks the operation failed.

A workload also knows which spans its layers record in a traced pass
(:meth:`traced_layers`) and which extra, separately timed calls derive
the layer figures a span cannot give (:meth:`layer_probes`).  Those
probe calls run outside the timed pass.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import shutil
import tempfile
import time
import types
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import repro.cdg.graph
import repro.chaos.campaign
import repro.chaos.workloads
import repro.sim.runner
from repro.analyze import Analyzer, DesignUnit, certify_all, check_certificates
from repro.cdg.graph import build_routing_cdg, build_turn_cdg
from repro.cdg.verify import verdict_for
from repro.chaos.campaign import CampaignConfig, derive_trial, run_trial, trial_record_bytes
from repro.core import PartitionSequence, catalog
from repro.core.arbitrary import (
    dependency_relation_from_routing,
    dependency_relation_from_turns,
    existence_verdict,
)
from repro.core.extraction import extract_turns
from repro.fuzz.generator import DesignGenerator
from repro.fuzz.oracle import DifferentialOracle
from repro.routing.dragonfly import DragonflyRouting, DragonflyValiant
from repro.sim.faults import FaultSchedule
from repro.sim.parallel import ResultCache, SweepEngine
from repro.sim.runner import RunConfig, run_point
from repro.sim.traffic import TrafficGenerator
from repro.sim.vector import VectorSimulator
from repro.topology import Dragonfly, FatTree, Mesh
from repro.topology.classes import no_classes, rule_for_design

from spans import Probe, patched, summarize


def digest(obj: object) -> str:
    """Short sha256 of an object's canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One timed, checked operation of a pass."""

    kind: str
    seconds: float
    ok: bool
    #: Units of work the operation did (certificates, flit moves, ...).
    work: float = 1.0


@dataclass
class PassResult:
    ops: list[Op]
    wall: float
    #: Per-operation outcomes, in order; every pass must reproduce them.
    outcomes: list
    #: Counts and stage times the program reports itself (no spans needed).
    reported: dict[str, float] = field(default_factory=dict)
    #: Span self-times and span counts of a traced pass.
    self_times: dict[str, float] = field(default_factory=dict)
    span_counts: dict[str, float] = field(default_factory=dict)
    #: Reference seconds per wall second while the pass ran (see
    #: ``run.reference_seconds``); every reported time is multiplied by it.
    scale: float = 1.0


class Workload:
    """Base: pass bookkeeping shared by the three workloads."""

    #: Operation kind -> (its named throughput metric, that metric's unit).
    KINDS: dict[str, tuple[str, str]] = {}

    def __init__(self) -> None:
        self.first_outcomes: "list | None" = None

    def run_pass(self, probe: Probe) -> PassResult:
        started = time.perf_counter()
        with patched(*self.traced_layers(probe)) if probe.traced else nullcontext():
            ops, outcomes, reported = self._pass(probe)
        wall = time.perf_counter() - started
        if self.first_outcomes is None:
            self.first_outcomes = outcomes
        else:
            # Same inputs, same outcomes: a drifting operation fails.
            for i, (now, first) in enumerate(zip(outcomes, self.first_outcomes)):
                if now != first:
                    ops[i].ok = False
        return PassResult(ops, wall, outcomes, reported, *summarize(probe.tracer.events))

    def _pass(self, probe: Probe) -> tuple[list[Op], list, dict]:
        raise NotImplementedError

    def traced_layers(self, probe: Probe) -> list:
        """(owner, attribute, make-wrapper) swaps that open layer spans."""
        return []

    def layer_probes(self, result: PassResult) -> dict[str, float]:
        """Layer figures derived from extra calls outside the timed pass."""
        return {}


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------

#: Beyond-mesh catalog designs: native topology, native routing engine
#: (their conservative turn CDG is cyclic by construction — a dragonfly
#: group is a clique — so the routed relation is the one to judge), and
#: the lint rules whose premises do not transfer, as ``repro lint`` and
#: ``tools/ci_lint_check.py`` ignore them.
NATIVE = {
    "dragonfly-minimal": (lambda: Dragonfly(4), DragonflyRouting, ("EBDA005",)),
    "dragonfly-valiant": (lambda: Dragonfly(4), DragonflyValiant, ("EBDA005",)),
    "fattree-updown": (lambda: FatTree(4, 2, 2), None, ()),
}

#: Fuzz mutation kinds that close a dependency cycle on a mesh (Theorem
#: 1, 2 and 3 violations); ``drop-channel`` only probes routability.
CYCLIC_MUTATIONS = ("add-turn", "backward-transition", "duplicate-pair")


@dataclass
class Design:
    name: str
    sequence: PartitionSequence
    topology: object
    rule: object
    acyclic: bool
    #: Explicit turn set (controls); None extracts it from the sequence.
    turnset: object = None
    routing: object = None
    ignore: tuple[str, ...] = ()


class VerifyCatalog(Workload):
    """Every catalog design on its native topology, plus cyclic controls."""

    KINDS = {
        "verify": ("verify.designs_per_s", "designs/s"),
        "lint": ("lint.designs_per_s", "designs/s"),
        "exists": ("exists.graphs_per_s", "graphs/s"),
        "certify": ("certify.certs_per_s", "certificates/s"),
    }

    def __init__(self, seed: int, radix: int = 8, cube: int = 4,
                 mutants_per_kind: int = 2) -> None:
        super().__init__()
        self.designs: list[Design] = []
        for name in sorted(catalog.NAMED_DESIGNS):
            seq = catalog.design(name)
            routing = None
            ignore: tuple[str, ...] = ()
            if name in NATIVE:
                make, engine, ignore = NATIVE[name]
                topology = make()
                routing = engine(topology) if engine else None
            else:
                topology = self._host(seq, radix, cube)
            self.designs.append(
                Design(name, seq, topology, rule_for_design(name), True,
                       routing=routing, ignore=ignore)
            )
        all_turns = PartitionSequence.parse("X+ X- Y+ Y-")
        self.designs.append(
            Design("control:all-turns-2d", all_turns, Mesh(radix, radix), no_classes,
                   False, turnset=extract_turns(all_turns, validate=False))
        )
        # Seeded mutants, all 2D with six channel classes and an equal
        # number of each cycle-closing kind, so the seed changes the
        # controls but not their size.
        generator = DesignGenerator(seed, families=("mesh",), mutant_fraction=1.0)
        wanted = {kind: mutants_per_kind for kind in CYCLIC_MUTATIONS}
        trial = 0
        while any(wanted.values()):
            fuzz = generator.design_for(trial)
            trial += 1
            seq, turnset = fuzz.compile()
            kind = fuzz.label.removeprefix("mutant:")
            if wanted.get(kind) and len(fuzz.shape) == 2 and len(seq.all_channels) == 6:
                wanted[kind] -= 1
                self.designs.append(
                    Design(f"control:mutant{trial - 1}:{kind}", seq, Mesh(radix, radix),
                           no_classes, False, turnset=turnset)
                )
        self.analyzers = {
            ignore: Analyzer(ignore=ignore) for ignore in {d.ignore for d in self.designs}
        }

    @staticmethod
    def _host(seq: PartitionSequence, radix: int, cube: int) -> Mesh:
        dims = len({ch.dim for ch in seq.all_channels})
        return Mesh(radix, radix) if dims <= 2 else Mesh(*((cube,) * dims))

    def traced_layers(self, probe: Probe) -> list:
        return [(
            repro.cdg.graph, "wires_for",
            lambda fn: probe.wrap("topology.wires.s", fn, count=len),
        )]

    def _pass(self, probe: Probe):
        ops: list[Op] = []
        outcomes: list = []
        edges = 0
        for d in self.designs:
            start = time.perf_counter()
            turnset = d.turnset
            if turnset is None:
                with probe.span("core.extraction.s"):
                    turnset = extract_turns(d.sequence)
            with probe.span("cdg.graph.build_s"):
                if d.routing is not None:
                    graph = build_routing_cdg(d.topology, d.routing, d.rule)
                else:
                    graph = build_turn_cdg(d.topology, turnset, d.sequence.all_channels, d.rule)
            search = "cdg.verify.search_acyclic_s" if d.acyclic else "cdg.verify.search_cyclic_s"
            with probe.span(search):
                verdict = verdict_for(graph)
            seconds = time.perf_counter() - start
            edges += graph.number_of_edges()
            cycle = verdict.cycle
            real_cycle = all(
                graph.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])
            )
            ops.append(Op("verify", seconds, verdict.acyclic == d.acyclic and real_cycle))
            outcomes.append((d.name, verdict.acyclic, verdict.wires, verdict.dependencies,
                             [str(w) for w in cycle]))

            unit = DesignUnit(
                sequence=d.sequence, turnset=turnset, name=d.name,
                topology=d.topology, rule=d.rule,
            )
            with probe.span("analyze.engine.run_s"):
                report, seconds = _timed(self.analyzers[d.ignore].run, unit)
            rules = sorted({diag.rule for diag in report.errors})
            ops.append(Op("lint", seconds, (not rules) == verdict.acyclic == d.acyclic))
            outcomes.append((d.name, rules))

            start = time.perf_counter()
            with probe.span("core.arbitrary.relation_s"):
                if d.routing is not None:
                    relation = dependency_relation_from_routing(d.topology, d.routing, d.rule)
                else:
                    relation = dependency_relation_from_turns(
                        d.topology, turnset, d.sequence.all_channels, d.rule
                    )
            with probe.span("core.arbitrary.peel_s"):
                exists = existence_verdict(relation)
            seconds = time.perf_counter() - start
            ops.append(Op("exists", seconds, exists.safe == verdict.acyclic == d.acyclic))
            outcomes.append((d.name, exists.safe, exists.core, list(exists.cycle)))

        start = time.perf_counter()
        with probe.span("analyze.symbolic.certify_s"):
            reports = certify_all()
        certs = [c.to_dict() for rep in reports for c in rep.certificates]
        with probe.span("analyze.certcheck.check_s"):
            checked = check_certificates(certs)
        seconds = time.perf_counter() - start
        ops.append(Op("certify", seconds, bool(certs) and all(r.ok for r in checked),
                      work=len(certs)))
        outcomes.append(sorted(c["digest"] for c in certs))
        return ops, outcomes, {"cdg.graph.edges": edges}


# ---------------------------------------------------------------------------
# sweep-mesh
# ---------------------------------------------------------------------------


class SweepMesh(Workload):
    """Vector-backend rate sweeps through ``SweepEngine.sweep``, cold then replayed."""

    KINDS = {
        "point": ("sweep.points_per_s", "points/s"),
        "cached": ("sweep.cached_points_per_s", "points/s"),
        "sim": ("sim.flit_moves_per_s", "moves/s"),
    }
    ROUTINGS = ("xy", "negative-first", "west-first-vcs")

    def __init__(self, seed: int, workdir: Path, radix: int = 10, cycles: int = 400,
                 rates: tuple[float, ...] = (0.02, 0.05), traffic_seeds: int = 2) -> None:
        super().__init__()
        self.workdir = workdir
        self.topology = Mesh(radix, radix)
        self.rates = rates
        # Several traffic draws per routing: how much routing-memo warm-up
        # a point pays depends on which node pairs its traffic touches.
        self.configs = [
            RunConfig(cycles=cycles, backend="vector", seed=traffic_seeds * seed + i)
            for i in range(traffic_seeds)
        ]
        #: Routing instances the traced pass built, and its cold points.
        self.built: list = []
        self.cold: list = []

    def traced_layers(self, probe: Probe) -> list:
        def routing_build(resolve):
            def traced_resolve(spec):
                factory = resolve(spec)

                def build(topology):
                    with probe.span("routing.build_s"):
                        routing = factory(topology)
                    self.built.append(routing)
                    return routing

                return build

            return traced_resolve

        return [
            (repro.sim.runner, "resolve_routing_factory", routing_build),
            (VectorSimulator, "run", lambda fn: probe.wrap("sim.vector.run_cold", fn)),
            (TrafficGenerator, "packets_for_cycle",
             lambda fn: probe.wrap("sim.traffic.s", fn)),
        ]

    def _pass(self, probe: Probe):
        self.built = []
        self.cold = []
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        try:
            engine = SweepEngine(jobs=1, cache=ResultCache(cache_dir))
            ops: list[Op] = []
            outcomes: list = []
            reported = {
                "sim.parallel.cache_read_s": 0.0, "sim.parallel.cache_write_s": 0.0,
                "sim.cycles": 0.0, "sim.flit_moves": 0.0, "lookups": 0.0, "hits": 0.0,
                "simulate_s": 0.0,
            }
            cold_stats: list = []
            for replay in (False, True):
                for spec, config in itertools.product(self.ROUTINGS, self.configs):
                    with probe.span("sweep"):
                        report = engine.sweep(self.topology, spec, self.rates, config)
                    reported["sim.parallel.cache_read_s"] += report.stage_times["cache_read"]
                    reported["sim.parallel.cache_write_s"] += report.stage_times["cache_write"]
                    reported["lookups"] += len(report.points)
                    reported["hits"] += report.cache_hits
                    share = report.wall_time / len(report.points)
                    for point in report.points:
                        stats = point.result.stats
                        sim_digest = digest(stats.to_dict())
                        ok = point.cached == replay and not stats.deadlocked
                        if replay:
                            ok = ok and sim_digest == cold_stats.pop(0)
                            ops.append(Op("cached", share, ok))
                        else:
                            cold_stats.append(sim_digest)
                            self.cold.append((point.result.config, sim_digest,
                                              point.wall_time))
                            reported["sim.cycles"] += stats.cycles
                            reported["sim.flit_moves"] += stats.flit_moves
                            reported["simulate_s"] += point.wall_time
                            ops.append(Op("point", share, ok))
                        outcomes.append((spec, point.result.config.injection_rate, sim_digest))
            return ops, outcomes, reported
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def layer_probes(self, result: PassResult) -> dict[str, float]:
        """Rerun each cold point on the routing instance it built.

        The rerun finds the routing memos warm; cold minus warm is the
        memo warm-up.  Identical stats are required of the rerun.
        """
        probe = Probe(True)
        warmup = 0.0
        failed = 0
        with patched(
            (VectorSimulator, "run", lambda fn: probe.wrap("sim.vector.run_s", fn)),
            (TrafficGenerator, "packets_for_cycle",
             lambda fn: probe.wrap("warm.traffic", fn)),
        ):
            for routing, (config, sim_digest, cold_s) in zip(self.built, self.cold):
                rerun, seconds = _timed(run_point, self.topology, routing, config)
                failed += digest(rerun.stats.to_dict()) != sim_digest
                warmup += cold_s - seconds
        return {
            "routing.warmup_s": warmup,
            "sim.vector.run_s": probe.self_times().get("sim.vector.run_s", 0.0),
            "probe.checks": len(self.cold),
            "probe.failed": failed,
        }


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


#: Per fuzz family: the fixed topology shape of its trials, the label
#: prefix of its mutants, and the number of channel classes of its designs
#: (None where the family's generator varies it little).
FUZZ_SLOTS = {
    "mesh": ((3, 3), "mutant:add-turn", 6),
    "torus": ((4,), "mutant:add-turn", None),
    "dragonfly": ((3,), "mutant", None),
    "fattree": ((2, 2, 1), "mutant", None),
    "irregular": ((3, 3), "mutant:backward-transition", 6),
}


class Campaign(Workload):
    """Differential fuzz trials over all five families, plus chaos trials."""

    KINDS = {
        "fuzz": ("fuzz.trials_per_s", "trials/s"),
        "chaos": ("chaos.trials_per_s", "trials/s"),
    }

    def __init__(self, seed: int, families: tuple[str, ...] = tuple(FUZZ_SLOTS),
                 per_slot: int = 2, cycles: int = 300) -> None:
        super().__init__()
        self.generators = {
            family: DesignGenerator(seed, families=(family,)) for family in families
        }
        # Valid designs and mutants of each family in equal numbers, each of a
        # fixed shape, channel-class count and (where the kind decides
        # whether the simulation oracle runs) mutation kind, so the seed
        # changes the designs but not the amount of work a pass does.
        self.trials: list[tuple[str, int]] = []
        for family in families:
            shape, mutant, channels = FUZZ_SLOTS[family]
            for label in ("valid", mutant):
                self.trials += [
                    (family, i) for i in self._first(family, shape, label, channels, per_slot)
                ]
        self.oracle = DifferentialOracle()
        # Chaos trials: for each traffic workload, the first trial with no
        # fault and the first with the most faults.
        self.chaos = CampaignConfig(trials=1000, seed=seed, cycles=cycles)
        strata: dict = {}
        for index in range(self.chaos.trials):
            spec = derive_trial(self.chaos, index)
            if spec.n_faults in (0, self.chaos.max_faults):
                strata.setdefault((spec.workload, spec.n_faults), index)
        self.chaos_trials = sorted(strata.values())
        self.designs: list = []

    def _first(self, family: str, shape: tuple, label: str, channels: "int | None",
               n: int) -> list[int]:
        """Indices of the family's first ``n`` designs of this shape, label and
        channel-class count."""
        found = []
        for index in range(10_000):
            fuzz = self.generators[family].design_for(index)
            if (fuzz.shape == shape and fuzz.label.startswith(label)
                    and channels in (None, len(fuzz.compile()[0].all_channels))):
                found.append(index)
                if len(found) == n:
                    return found
        raise RuntimeError(f"fewer than {n} {family} designs of shape {shape} labelled {label}")

    def traced_layers(self, probe: Probe) -> list:
        return [
            (repro.chaos.campaign, "FaultSchedule", lambda cls: types.SimpleNamespace(
                random=probe.wrap("sim.faults.schedule_s", cls.random))),
            (repro.chaos.campaign, "run_point",
             lambda fn: probe.wrap("sim.runner.run_point_s", fn)),
            (repro.chaos.workloads.WorkloadTrace, "materialize",
             lambda fn: probe.wrap("chaos.workloads.materialize_s", fn)),
        ]

    def _pass(self, probe: Probe):
        ops: list[Op] = []
        outcomes: list = []
        self.designs = []
        for family, index in self.trials:
            start = time.perf_counter()
            with probe.span("fuzz.generator.s"):
                fuzz = self.generators[family].design_for(index)
            with probe.span("fuzz.oracle.run"):
                result = self.oracle.run(fuzz)
            seconds = time.perf_counter() - start
            self.designs.append(fuzz)
            ok = result.disagreement is None and result.classification != "oracle-error"
            ops.append(Op("fuzz", seconds, ok))
            outcomes.append(digest(result.to_dict()))
        counts: dict[str, float] = {}
        for index in self.chaos_trials:
            with probe.span("chaos.trial"):
                record, seconds = _timed(run_trial, self.chaos, index)
            key = f"chaos.outcome.{record['outcome']}"
            counts[key] = counts.get(key, 0) + 1
            ops.append(Op("chaos", seconds, record["outcome"] != "error"))
            outcomes.append(trial_record_bytes(record).decode())
        return ops, outcomes, counts

    def layer_probes(self, result: PassResult) -> dict[str, float]:
        """Time the four static oracles on their own; the simulation
        oracle is the rest of ``DifferentialOracle.run``."""
        probe = Probe(True)
        for fuzz in self.designs:
            with probe.span("fuzz.oracle.theorem_s"):
                self.oracle.theorem_verdict(fuzz)
            with probe.span("fuzz.oracle.static_s"):
                self.oracle.static_verdict(fuzz)
            with probe.span("fuzz.oracle.cdg_s"):
                self.oracle.cdg_verdict(fuzz)
            with probe.span("fuzz.oracle.arbitrary_s"):
                self.oracle.arbitrary_verdict(fuzz)
        times = probe.self_times()
        static = sum(times.values())
        return {
            **times,
            "fuzz.oracle.sim_residual_s": result.self_times.get("fuzz.oracle.run", 0.0) - static,
        }


def geomean_ms(ops: list[Op]) -> float:
    return 1000.0 * math.exp(sum(math.log(max(op.seconds, 1e-9)) for op in ops) / len(ops))
