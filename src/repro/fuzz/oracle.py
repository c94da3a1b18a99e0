"""The differential oracle: five independent verdicts on one design.

For every :class:`~repro.fuzz.design.FuzzDesign` the oracle computes:

1. **theorem verdict** — :func:`repro.core.theorems.audit_turns` over the
   compiled turns, plus a wrap-ring closure check on wrap topologies (the
   paper's Theorem 2 torus remark: every ring must be broken by a one-way
   class switch; class-level checks alone cannot see ring closure);
2. **static-analyzer verdict** — the lint pass of :mod:`repro.analyze`
   restricted to its theorem-mirror rules (EBDA001-005).  Those rules
   consume the same structured violation streams as verdict 1 through an
   entirely different wiring (DesignUnit construction, rule registry,
   diagnostic engine), so the two must agree on every trial — any split
   is a bug in the analyzer plumbing;
3. **CDG verdict** — Dally acyclicity of the concrete CDG
   (:func:`repro.cdg.verify.verdict_for`): the conservative turn CDG for
   table-routed designs, the routed CDG for native engines;
4. **simulation verdict** — short wormhole runs with the deadlock
   watchdog: a *crafted ring* run that parks worms along a concrete CDG
   cycle (deterministic deadlock if the cycle is real), then adversarial
   runs (tornado/rotate90/uniform + hotspot traffic);
5. **arbitrary-network verdict** — the Mendlovic-Matias existence
   condition (:mod:`repro.core.arbitrary`): sink-peeling of a wait-for
   relation rebuilt from scratch (no networkx, no shared CDG code).
   Theory says it must coincide with verdict 3 on finite graphs, so
   either split direction is a hard disagreement.

Designs carry a topology family (mesh, torus, dragonfly, fattree,
irregular) and a routing engine.  Table-routed families are judged
through the conservative turn relation; native engines (minimal
dragonfly, Up*/Down*) are judged through their routed relation — the
conservative relation would flag every valid dragonfly (local straight
continuations close global rings a minimal router never takes), and
class-level ring checks do not model engine legality, so the wrap-ring
closure check and topology-aware lint rules apply to table designs only.

Every simulation run is additionally replayed on the vector backend
(same traffic, same seeds) when the profile's ``compare_backends`` is
on.  A trial's adversarial runs replay together, as the replicas of one
:func:`~repro.sim.vector.run_batch` (one kernel step loop for all of
them); the crafted-ring run, with its own routing and watchdog, is a
batch of one.  The two engines claim cycle-exactness, so any difference
in the resulting :meth:`~repro.sim.stats.SimStats.to_dict` — deadlock
declaration cycle included — is the hard disagreement
``backend-divergence``.  Designs outside the vector engine's scope
(custom selections, faults) simply skip the mirror; ``backend_agree``
stays ``None`` for them.

The theory says theorem-safe ⟹ CDG-acyclic ⟹ no simulator deadlock, so
any edge violated in that chain is a **hard disagreement**:

* ``theorem-safe-cdg-cyclic`` — the theorems certified a cyclic design;
* ``cdg-acyclic-sim-deadlock`` — acyclic CDG but the watchdog fired;
* ``static-clean-theorem-unsafe`` — the linter passed a design the
  theorem oracle rejects (analyzer wiring bug);
* ``static-error-theorem-safe`` — the linter errored on a design the
  theorem oracle certifies (analyzer wiring bug);
* ``valid-design-rejected`` — Algorithm 1/2 output failed the theorems;
* ``valid-design-unroutable`` — a certified design cannot route a pair;
* ``backend-divergence`` — the vector backend produced different stats
  (or a different unroutable verdict) than the reference simulator;
* ``arbitrary-safe-cdg-cyclic`` — the existence condition certified a
  design whose concrete CDG is cyclic;
* ``arbitrary-unsafe-cdg-acyclic`` — the existence condition rejected a
  design whose concrete CDG is acyclic;
* ``oracle-error`` — an oracle crashed (never acceptable).

Everything else is agreement: ``safe-confirmed``, ``unsafe-flagged`` (all
five fire), ``unsafe-conservative`` (theorems reject, concrete CDG is
still acyclic — the theorems are sufficient, not necessary),
``cyclic-not-triggered`` (cycle exists but minimal routing cannot express
it, e.g. a descending U-turn mutant), ``unroutable``.

When the watchdog fires, a :class:`DeadlockForensics` snapshot of the
stopped simulator is embedded in the trial so a disagreement report
carries the wait-cycle witness; ``witness_in_core`` records whether the
witness wires lie inside the CDG's cyclic core.
"""

from __future__ import annotations

import itertools
import traceback
from dataclasses import dataclass, field

from repro.analyze.engine import static_errors as _static_errors
from repro.analyze.rings import unbroken_wrap_rings
from repro.analyze.unit import DesignUnit
from repro.cdg.cycles import simple_cycles
from repro.cdg.graph import DependencyGraph, build_routing_cdg, build_turn_cdg
from repro.cdg.verify import Verdict, cyclic_core, verdict_for
from repro.core.arbitrary import (
    ArbitraryVerdict,
    dependency_relation_from_routing,
    dependency_relation_from_turns,
    existence_verdict,
)
from repro.core.channel import Channel
from repro.core.sequence import PartitionSequence
from repro.core.theorems import audit_turns
from repro.core.turns import TurnSet
from repro.errors import ConfigError, EbdaError, RoutingError, SimulationError
from repro.fuzz.design import FuzzDesign
from repro.routing.base import Candidate, RoutingFunction
from repro.routing.table import TurnTableRouting
from repro.sim.metrics import DeadlockForensics
from repro.sim.network import NetworkSimulator
from repro.sim.patterns import hotspot, rotate90, tornado, uniform
from repro.sim.traffic import ScriptedTraffic, TrafficConfig, TrafficGenerator
from repro.sim.vector import run_batch
from repro.topology.base import Coord, Topology
from repro.topology.classes import ClassRule
from repro.topology.wires import Wire

__all__ = [
    "DifferentialOracle",
    "HARD_DISAGREEMENTS",
    "SimProfile",
    "TrialResult",
    "fast_profile",
]

#: Classifications that mean the oracles contradict each other.
HARD_DISAGREEMENTS = (
    "theorem-safe-cdg-cyclic",
    "cdg-acyclic-sim-deadlock",
    "static-clean-theorem-unsafe",
    "static-error-theorem-safe",
    "valid-design-rejected",
    "valid-design-unroutable",
    "backend-divergence",
    "arbitrary-safe-cdg-cyclic",
    "arbitrary-unsafe-cdg-acyclic",
    "oracle-error",
)


@dataclass(frozen=True)
class SimProfile:
    """Budgets for the simulation oracle (picklable; ships to workers)."""

    #: Crafted-ring run: worms sized ``buffer_depth + 2``, watchdog cycles.
    crafted_watchdog: int = 50
    crafted_buffer_depth: int = 2
    #: Adversarial runs: cycles / rate / length / buffers / watchdog / seeds.
    cycles: int = 600
    injection_rate: float = 0.32
    packet_length: int = 8
    buffer_depth: int = 2
    watchdog: int = 200
    seeds: tuple[int, ...] = (0,)
    #: Fraction of hotspot traffic aimed at the first node.
    hotspot_fraction: float = 0.5
    #: Simple-cycle enumeration budget when picking a crafted ring.
    cycle_search_limit: int = 400
    #: Mirror every simulation run on the vector backend and require
    #: bit-identical stats (the ``backend-divergence`` oracle).
    compare_backends: bool = True


def fast_profile() -> SimProfile:
    """A cheaper profile for property tests and smoke runs."""
    return SimProfile(cycles=250, watchdog=120, seeds=(0,))


@dataclass
class TrialResult:
    """Everything one differential trial produced (JSON-safe via to_dict)."""

    design: FuzzDesign
    theorem_safe: bool = False
    theorem_violations: tuple[str, ...] = ()
    #: Verdict of the static analyzer's theorem-mirror rules (EBDA001-005).
    static_safe: bool = False
    static_errors: tuple[str, ...] = ()
    cdg_acyclic: bool = False
    cdg_wires: int = 0
    cdg_dependencies: int = 0
    cdg_cycle: tuple[str, ...] = ()
    #: Verdict of the arbitrary-network existence condition (fifth oracle).
    arbitrary_safe: bool = False
    arbitrary_core: int = 0
    arbitrary_cycle: tuple[str, ...] = ()
    sim_deadlock: bool = False
    sim_unroutable: bool = False
    sim_runs: tuple[dict, ...] = ()
    forensics: dict | None = None
    #: Witness wires ⊆ CDG cyclic core?  None when either oracle is quiet.
    witness_in_core: bool | None = None
    #: Did the vector backend reproduce every run bit-identically?
    #: None when no run could be mirrored (vector-unsupported config).
    backend_agree: bool | None = None
    backend_divergences: tuple[str, ...] = ()
    classification: str = "oracle-error"
    disagreement: str | None = None
    error: str | None = None

    @property
    def all_flagged(self) -> bool:
        """Did all five oracles independently flag the design unsafe?"""
        return (
            not self.theorem_safe
            and not self.static_safe
            and not self.cdg_acyclic
            and not self.arbitrary_safe
            and self.sim_deadlock
        )

    def to_dict(self) -> dict:
        return {
            "design": self.design.to_dict(),
            "theorem_safe": self.theorem_safe,
            "theorem_violations": list(self.theorem_violations),
            "static_safe": self.static_safe,
            "static_errors": list(self.static_errors),
            "cdg_acyclic": self.cdg_acyclic,
            "cdg_wires": self.cdg_wires,
            "cdg_dependencies": self.cdg_dependencies,
            "cdg_cycle": list(self.cdg_cycle),
            "arbitrary_safe": self.arbitrary_safe,
            "arbitrary_core": self.arbitrary_core,
            "arbitrary_cycle": list(self.arbitrary_cycle),
            "sim_deadlock": self.sim_deadlock,
            "sim_unroutable": self.sim_unroutable,
            "sim_runs": list(self.sim_runs),
            "forensics": self.forensics,
            "witness_in_core": self.witness_in_core,
            "backend_agree": self.backend_agree,
            "backend_divergences": list(self.backend_divergences),
            "classification": self.classification,
            "disagreement": self.disagreement,
            "error": self.error,
        }


class CycleRouting(RoutingFunction):
    """Deterministic routing along one concrete CDG cycle.

    Every offered move is a wire of the cycle, and every cycle edge is a
    straight-through or design-allowed transition by construction — so the
    relation is a sub-relation of the design's, and any deadlock it
    produces is a genuine deadlock of the design itself.  Requires a
    node-simple cycle (distinct source routers), which makes both the
    injection map and the (router, in-channel) next-hop map unambiguous.
    """

    def __init__(
        self,
        topology: Topology,
        cycle: tuple[Wire, ...],
        classes: tuple[Channel, ...],
        rule: ClassRule,
    ) -> None:
        super().__init__(topology, rule)
        self.cycle = cycle
        self._classes = tuple(classes)
        self._inject: dict[Coord, Wire] = {w.src: w for w in cycle}
        self._next: dict[tuple[Coord, Channel], Wire] = {}
        k = len(cycle)
        for i, wire in enumerate(cycle):
            self._next[(wire.dst, wire.channel)] = cycle[(i + 1) % k]

    @property
    def channel_classes(self) -> tuple[Channel, ...]:
        return self._classes

    def candidates(
        self, cur: Coord, dst: Coord, in_channel: Channel | None
    ) -> list[Candidate]:
        if cur == dst:
            return []
        if in_channel is None:
            wire = self._inject.get(cur)
        else:
            wire = self._next.get((cur, in_channel))
        if wire is None:
            return []
        return [(wire.dst, wire.channel)]


class DifferentialOracle:
    """Runs one design through all five verdict paths and classifies."""

    def __init__(self, profile: SimProfile | None = None) -> None:
        self.profile = profile or SimProfile()

    # -- individual oracles ------------------------------------------------

    @staticmethod
    def _native(design: FuzzDesign) -> bool:
        """Is the design judged through a native engine's routed relation?"""
        return design.engine != "table"

    def theorem_verdict(
        self, design: FuzzDesign
    ) -> tuple[bool, tuple[str, ...]]:
        """(safe, violations) from the class-level theorem checks."""
        seq, turnset = design.compile()
        reports = audit_turns(seq, sorted(turnset.turns))
        violations = [v for rep in reports for v in rep.violations]
        if not self._native(design):
            violations.extend(
                unbroken_wrap_rings(
                    design.topology(), seq.all_channels, turnset, design.class_rule()
                )
            )
        return (not violations, tuple(violations))

    def static_verdict(self, design: FuzzDesign) -> tuple[bool, tuple[str, ...]]:
        """(safe, error strings) from the static analyzer's mirror rules."""
        seq, turnset = design.compile()
        unit = DesignUnit(
            sequence=seq,
            turnset=turnset,
            name=design.label or seq.arrow_notation(),
            # Native engines: class-level rules only — the topology-aware
            # rules model table legality, not engine legality.
            topology=None if self._native(design) else design.topology(),
            rule=design.class_rule(),
        )
        errors = _static_errors(unit)
        return (not errors, errors)

    def cdg_graph(self, design: FuzzDesign) -> DependencyGraph:
        seq, turnset = design.compile()
        topology = design.topology()
        rule = design.class_rule()
        if self._native(design):
            return build_routing_cdg(topology, design.engine_routing(topology), rule)
        return build_turn_cdg(topology, turnset, seq.all_channels, rule)

    def cdg_verdict(self, design: FuzzDesign) -> Verdict:
        return verdict_for(self.cdg_graph(design))

    def arbitrary_verdict(self, design: FuzzDesign) -> ArbitraryVerdict:
        """The fifth oracle: the arbitrary-network existence condition."""
        seq, turnset = design.compile()
        topology = design.topology()
        rule = design.class_rule()
        if self._native(design):
            relation = dependency_relation_from_routing(
                topology, design.engine_routing(topology), rule
            )
        else:
            relation = dependency_relation_from_turns(
                topology, turnset, seq.all_channels, rule
            )
        return existence_verdict(relation)

    # -- the full trial ----------------------------------------------------

    def run(self, design: FuzzDesign) -> TrialResult:
        result = TrialResult(design=design)
        try:
            self._run(design, result)
        except Exception as exc:  # noqa: BLE001 — an oracle crash IS a finding
            result.classification = "oracle-error"
            result.disagreement = "oracle-error"
            result.error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
        return result

    def _run(self, design: FuzzDesign, result: TrialResult) -> None:
        seq, turnset = design.compile()
        topology = design.topology()
        rule = design.class_rule()
        native = self._native(design)
        native_routing = design.engine_routing(topology) if native else None

        reports = audit_turns(seq, sorted(turnset.turns))
        violations = [v for rep in reports for v in rep.violations]
        if not native:
            violations.extend(
                unbroken_wrap_rings(topology, seq.all_channels, turnset, rule)
            )
        result.theorem_safe = not violations
        result.theorem_violations = tuple(violations)

        unit = DesignUnit(
            sequence=seq,
            turnset=turnset,
            name=design.label or seq.arrow_notation(),
            topology=None if native else topology,
            rule=rule,
        )
        static = _static_errors(unit)
        result.static_safe = not static
        result.static_errors = static

        if native:
            graph = build_routing_cdg(topology, native_routing, rule)
        else:
            graph = build_turn_cdg(topology, turnset, seq.all_channels, rule)
        verdict = verdict_for(graph)
        result.cdg_acyclic = verdict.acyclic
        result.cdg_wires = verdict.wires
        result.cdg_dependencies = verdict.dependencies
        result.cdg_cycle = tuple(str(w) for w in verdict.cycle)

        if native:
            relation = dependency_relation_from_routing(
                topology, native_routing, rule
            )
        else:
            relation = dependency_relation_from_turns(
                topology, turnset, seq.all_channels, rule
            )
        arbitrary = existence_verdict(relation)
        result.arbitrary_safe = arbitrary.safe
        result.arbitrary_core = arbitrary.core
        result.arbitrary_cycle = arbitrary.cycle

        runs, forensics = self._simulate(
            design, seq, turnset, topology, rule, graph, verdict, native_routing
        )
        result.sim_runs = tuple(runs)
        result.sim_deadlock = any(r.get("deadlocked") for r in runs)
        result.sim_unroutable = any(r.get("unroutable") for r in runs)
        result.forensics = forensics.to_dict() if forensics else None

        mirrored = [r for r in runs if "backend_agree" in r]
        result.backend_divergences = tuple(
            d for r in mirrored for d in r.get("backend_divergences", ())
        )
        if mirrored:
            result.backend_agree = not result.backend_divergences

        if forensics is not None and not verdict.acyclic:
            core = {str(w) for w in cyclic_core(graph)}
            held = {w for wires in forensics.witness_channels for w in wires}
            result.witness_in_core = bool(held) and held <= core

        result.classification, result.disagreement = self._classify(
            design.labeled_valid,
            result.theorem_safe,
            result.cdg_acyclic,
            result.sim_deadlock,
            result.sim_unroutable,
            static_safe=result.static_safe,
            arbitrary_safe=result.arbitrary_safe,
        )
        if result.backend_agree is False:
            # Two engines claiming cycle-exactness disagreed: that trumps
            # whatever the (now untrustworthy) simulation verdict implied.
            result.classification = "backend-divergence"
            result.disagreement = "backend-divergence"

    @staticmethod
    def _classify(
        labeled_valid: bool,
        theorem_safe: bool,
        cdg_acyclic: bool,
        deadlock: bool,
        unroutable: bool,
        static_safe: bool | None = None,
        arbitrary_safe: bool | None = None,
    ) -> tuple[str, str | None]:
        # The static analyzer's mirror rules share the theorem oracle's
        # violation streams — a split verdict is an analyzer wiring bug.
        if static_safe is not None and static_safe != theorem_safe:
            kind = (
                "static-clean-theorem-unsafe"
                if static_safe
                else "static-error-theorem-safe"
            )
            return kind, kind
        # The existence condition decides the same question as concrete-CDG
        # acyclicity by an independent algorithm — any split is a bug.
        if arbitrary_safe is not None and arbitrary_safe != cdg_acyclic:
            kind = (
                "arbitrary-safe-cdg-cyclic"
                if arbitrary_safe
                else "arbitrary-unsafe-cdg-acyclic"
            )
            return kind, kind
        if theorem_safe and not cdg_acyclic:
            return "theorem-safe-cdg-cyclic", "theorem-safe-cdg-cyclic"
        if cdg_acyclic and deadlock:
            return "cdg-acyclic-sim-deadlock", "cdg-acyclic-sim-deadlock"
        if labeled_valid and not theorem_safe:
            return "valid-design-rejected", "valid-design-rejected"
        if theorem_safe:  # and acyclic, no deadlock
            if unroutable:
                if labeled_valid:
                    return "valid-design-unroutable", "valid-design-unroutable"
                return "unroutable", None
            return "safe-confirmed", None
        # Theorems reject from here on (and the design is labeled mutant).
        if cdg_acyclic:
            return "unsafe-conservative", None
        if deadlock:
            return "unsafe-flagged", None
        if unroutable:
            return "unroutable", None
        return "cyclic-not-triggered", None

    # -- simulation oracle -------------------------------------------------

    def _simulate(
        self,
        design: FuzzDesign,
        seq: PartitionSequence,
        turnset: TurnSet,
        topology: Topology,
        rule: ClassRule,
        graph: DependencyGraph,
        verdict: Verdict,
        native_routing: RoutingFunction | None = None,
    ) -> tuple[list[dict], DeadlockForensics | None]:
        profile = self.profile
        runs: list[dict] = []

        crafted_classes = (
            native_routing.channel_classes
            if native_routing is not None
            else seq.all_channels
        )
        if not verdict.acyclic:
            crafted, crafted_forensics = self._crafted_ring_run(
                topology, crafted_classes, rule, graph
            )
            if crafted is not None:
                runs.append(crafted)
                if crafted.get("deadlocked"):
                    return runs, crafted_forensics

        if native_routing is not None:
            routing: RoutingFunction = native_routing
        else:
            table_kwargs: dict = {}
            if design.topology_kind == "irregular":
                # Minimal directions may dead-end around failed links;
                # route by BFS progress with a turn-legal escape fallback.
                table_kwargs = {"directions": "progressive", "fallback": "escape"}
            try:
                routing = TurnTableRouting(
                    topology, seq, rule, turnset=turnset, validate=False,
                    **table_kwargs,
                )
            except EbdaError as exc:
                runs.append(
                    {"kind": "routing-build", "unroutable": True, "error": str(exc)}
                )
                return runs, None

        nodes = sorted(topology.nodes)
        patterns: list[tuple[str, object]] = []
        if design.topology_kind == "torus":
            patterns.append(("tornado", tornado))
        elif (
            design.topology_kind == "mesh"
            and len(design.shape) >= 2
            and design.shape[0] == design.shape[1]
        ):
            patterns.append(("rotate90", rotate90))
        else:
            patterns.append(("uniform", uniform))
        patterns.append(
            ("hotspot", hotspot([nodes[0]], profile.hotspot_fraction))
        )

        replays = []
        forensics = None
        for seed, (name, pattern) in itertools.product(profile.seeds, patterns):
            run, replay, run_forensics = self._adversarial_run(
                topology, routing, rule, name, pattern, seed
            )
            runs.append(run)
            replays.append(replay)
            if run.get("deadlocked"):
                forensics = run_forensics
                break
        self._mirror_on_vector(
            topology,
            routing,
            rule,
            replays,
            buffer_depth=profile.buffer_depth,
            watchdog=profile.watchdog,
        )
        return runs, forensics

    def _adversarial_run(
        self,
        topology: Topology,
        routing: RoutingFunction,
        rule: ClassRule,
        pattern_name: str,
        pattern,
        seed: int,
    ) -> tuple[dict, tuple, DeadlockForensics | None]:
        """One reference run, its replay for :meth:`_mirror_on_vector`, and
        the forensics of the deadlock it declared (``None`` if none)."""
        profile = self.profile
        sim = NetworkSimulator(
            topology,
            routing,
            rule,
            buffer_depth=profile.buffer_depth,
            watchdog=profile.watchdog,
            seed=seed,
        )
        config = TrafficConfig(
            injection_rate=profile.injection_rate,
            packet_length=profile.packet_length,
            pattern=pattern,
            seed=seed,
        )
        record: dict = {"kind": "adversarial", "pattern": pattern_name, "seed": seed}
        ref_stats = ref_error = forensics = None
        try:
            stats = ref_stats = sim.run(
                profile.cycles, TrafficGenerator(topology, config)
            )
        except (RoutingError, SimulationError) as exc:
            ref_error = exc
            record.update(unroutable=True, error=str(exc))
        else:
            record.update(
                deadlocked=stats.deadlocked,
                cycles=stats.cycles,
                delivered=stats.packets_delivered,
            )
            if stats.deadlocked:
                forensics = DeadlockForensics.capture(sim)
        replay = (
            record,
            profile.cycles,
            TrafficGenerator(topology, config),
            seed,
            ref_stats,
            ref_error,
        )
        return record, replay, forensics

    def _crafted_ring_run(
        self,
        topology: Topology,
        classes: tuple[Channel, ...],
        rule: ClassRule,
        graph: DependencyGraph,
    ) -> tuple[dict | None, DeadlockForensics | None]:
        profile = self.profile
        cycle = self._pick_cycle(graph)
        if cycle is None:
            return None, None
        routing = CycleRouting(topology, cycle, tuple(classes), rule)
        depth = profile.crafted_buffer_depth
        length = depth + 2
        k = len(cycle)
        script = []
        for i, wire in enumerate(cycle):
            dst = cycle[(i + 1) % k].dst  # two hops along the ring
            if dst == wire.src:
                return None, None
            script.append((wire.src, dst, length))
        sim = NetworkSimulator(
            topology,
            routing,
            rule,
            buffer_depth=depth,
            watchdog=profile.crafted_watchdog,
            seed=0,
        )
        record: dict = {"kind": "crafted-ring", "ring": [str(w) for w in cycle]}
        cycles = profile.crafted_watchdog * 5
        ref_stats = ref_error = None
        try:
            stats = ref_stats = sim.run(cycles, ScriptedTraffic({0: script}))
        except (RoutingError, SimulationError) as exc:
            ref_error = exc
            record.update(unroutable=True, error=str(exc))
        else:
            record.update(deadlocked=stats.deadlocked, cycles=stats.cycles)
        # Its own routing and watchdog: a batch of one.
        self._mirror_on_vector(
            topology,
            routing,
            rule,
            [(record, cycles, ScriptedTraffic({0: script}), 0, ref_stats, ref_error)],
            buffer_depth=depth,
            watchdog=profile.crafted_watchdog,
        )
        if ref_stats is None or not ref_stats.deadlocked:
            return record, None
        return record, DeadlockForensics.capture(sim)

    def _mirror_on_vector(
        self,
        topology: Topology,
        routing: RoutingFunction,
        rule: ClassRule,
        replays: list[tuple],
        *,
        buffer_depth: int,
        watchdog: int,
    ) -> None:
        """Replay reference runs on the vector backend and diff the stats.

        ``replays`` holds one ``(record, cycles, traffic, seed, ref_stats,
        ref_error)`` per reference run on this network, with a fresh copy
        of its traffic; they replay together, as one :func:`run_batch`.
        Annotates each ``record`` with ``backend_agree`` (and the
        divergence strings when the engines split).  A config outside the
        vector engine's scope leaves the records unannotated — nothing to
        compare.
        """
        if not self.profile.compare_backends:
            return
        try:
            outcomes = run_batch(
                topology,
                routing,
                rule,
                [(cycles, traffic) for _, cycles, traffic, *_ in replays],
                buffer_depth=buffer_depth,
                watchdog=watchdog,
            )
        except ConfigError:
            return
        for (record, _, _, seed, ref_stats, ref_error), outcome in zip(
            replays, outcomes
        ):
            divergences = _divergences(record, seed, ref_stats, ref_error, outcome)
            record["backend_agree"] = not divergences
            if divergences:
                record["backend_divergences"] = tuple(divergences)

    def _pick_cycle(self, graph: DependencyGraph) -> tuple[Wire, ...] | None:
        """A small node-simple CDG cycle (distinct routers), if any exists.

        Worms can only be parked unambiguously along a cycle whose wires
        start at distinct routers and span at least three of them; a
        2-wire back-and-forth (e.g. a lone descending U-turn) has no such
        arrangement — the caller then falls back to adversarial traffic.
        """
        limit = self.profile.cycle_search_limit
        for bound in (3, 4, 6, 8, 12):
            candidates = []
            seen = 0
            for nodes in simple_cycles(graph, length_bound=bound):
                seen += 1
                if seen > limit:
                    break
                if len(nodes) < 3:
                    continue
                sources = {w.src for w in nodes}
                if len(sources) != len(nodes):
                    continue
                candidates.append(_canonical_rotation(nodes))
            if candidates:
                return min(
                    candidates,
                    key=lambda c: (len(c), tuple(str(w) for w in c)),
                )
        return None


def _canonical_rotation(cycle: tuple[Wire, ...]) -> tuple[Wire, ...]:
    """Rotate a cycle to start at its lexicographically smallest wire.

    ``simple_cycles`` starts a cycle wherever its search entered it, so
    selection compares rotation-invariant forms: the crafted ring is then
    the smallest cycle, whatever order the search found the cycles in.
    """
    start = min(range(len(cycle)), key=lambda i: str(cycle[i]))
    return cycle[start:] + cycle[:start]


def _divergences(record: dict, seed: int, ref_stats, ref_error, outcome) -> list[str]:
    """How a vector replay (stats, or the error it raised) split from the
    reference run (``ref_stats``, or ``ref_error``); empty when they agree."""
    if isinstance(outcome, Exception):
        if ref_error is None:
            return [
                f"vector raised {type(outcome).__name__} ({outcome}) where the"
                " reference completed"
            ]
        if type(outcome) is not type(ref_error):
            return [
                f"vector raised {type(outcome).__name__} where the reference"
                f" raised {type(ref_error).__name__}"
            ]
        return []
    if ref_error is not None:
        return [
            "vector completed where the reference raised"
            f" {type(ref_error).__name__} ({ref_error})"
        ]
    ref_dict, vec_dict = ref_stats.to_dict(), outcome.to_dict()
    if ref_dict == vec_dict:
        return []
    keys = sorted(k for k in ref_dict if ref_dict[k] != vec_dict.get(k))
    return [
        f"stats differ on {', '.join(keys)}"
        f" (kind={record.get('kind')},"
        f" pattern={record.get('pattern')}, seed={seed})"
    ]
