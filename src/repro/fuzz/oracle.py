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
   runs (tornado/rotate90/uniform + hotspot traffic).  Each run is on the
   reference engine; with the profile's ``compare_backends`` on (the
   default) it is replayed on the vector engine with the same traffic
   and seeds.  A trial's adversarial runs replay together, as the
   replicas of one :func:`~repro.sim.vector.run_batch` (one kernel step
   loop for all of them); the crafted-ring run, with its own routing and
   watchdog, is a batch of one.  The two engines claim cycle-exactness,
   so any difference in the resulting
   :meth:`~repro.sim.stats.SimStats.to_dict` — deadlock declaration
   cycle included — or an error on one engine only is the hard
   disagreement ``backend-divergence``.  Designs outside the vector
   engine's scope simply skip the replay; ``backend_agree`` stays
   ``None`` for them;
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

Each verdict has one implementation: :meth:`DifferentialOracle.run`
builds a design's sequence, turn set, topology, class rule and native
routing once and judges it through the same code as the public
``theorem_verdict``, ``static_verdict``, ``cdg_verdict`` and
``arbitrary_verdict``.  The simulation budgets a caller may change are
the :class:`SimProfile` fields; the fixed ones are this module's
constants (``INJECTION_RATE``, ``CRAFTED_WATCHDOG``, ...).

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
from dataclasses import dataclass, fields
from functools import cached_property

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
from repro.core.theorems import audit_turns
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

#: Crafted-ring run: watchdog cycles (the run lasts five of them) and
#: buffer depth (worms are two flits longer).
CRAFTED_WATCHDOG = 50
CRAFTED_BUFFER_DEPTH = 2
#: Adversarial runs: injection rate, packet length and buffer depth.
INJECTION_RATE = 0.32
PACKET_LENGTH = 8
BUFFER_DEPTH = 2
#: Fraction of hotspot traffic aimed at the first node.
HOTSPOT_FRACTION = 0.5
#: Simple-cycle enumeration budget when picking a crafted ring.
CYCLE_SEARCH_LIMIT = 400


@dataclass(frozen=True)
class SimProfile:
    """Budgets for the simulation oracle (picklable; ships to workers)."""

    #: Adversarial runs: cycles / watchdog / seeds.
    cycles: int = 600
    watchdog: int = 200
    seeds: tuple[int, ...] = (0,)
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
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, FuzzDesign):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


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


class _Trial:
    """One design as the verdicts judge it.

    The compiled sequence and turn set are built at once; the topology,
    class rule and native routing on first use, then kept.  A trial shares
    one native-routing instance between its routed CDG, its dependency
    relation and its simulation runs.
    """

    def __init__(self, design: FuzzDesign) -> None:
        self.design = design
        self.seq, self.turnset = design.compile()
        #: Judged through a native engine's routed relation?  Native
        #: engines get class-level checks only: the wrap-ring closure check
        #: and the topology-aware lint rules model table legality.
        self.native = design.engine != "table"

    @cached_property
    def topology(self) -> Topology:
        return self.design.topology()

    @cached_property
    def rule(self) -> ClassRule:
        return self.design.class_rule()

    @cached_property
    def routing(self) -> RoutingFunction | None:
        """The native routing engine, ``None`` for table-routed designs."""
        return self.design.engine_routing(self.topology) if self.native else None

    def theorem(self) -> tuple[bool, tuple[str, ...]]:
        reports = audit_turns(self.seq, sorted(self.turnset.turns))
        violations = [v for rep in reports for v in rep.violations]
        if not self.native:
            violations.extend(
                unbroken_wrap_rings(
                    self.topology, self.seq.all_channels, self.turnset, self.rule
                )
            )
        return (not violations, tuple(violations))

    def static(self) -> tuple[bool, tuple[str, ...]]:
        unit = DesignUnit(
            sequence=self.seq,
            turnset=self.turnset,
            name=self.design.label or self.seq.arrow_notation(),
            topology=None if self.native else self.topology,
            rule=self.rule,
        )
        errors = _static_errors(unit)
        return (not errors, errors)

    def cdg_graph(self) -> DependencyGraph:
        if self.native:
            return build_routing_cdg(self.topology, self.routing, self.rule)
        return build_turn_cdg(
            self.topology, self.turnset, self.seq.all_channels, self.rule
        )

    def arbitrary(self) -> ArbitraryVerdict:
        if self.native:
            relation = dependency_relation_from_routing(
                self.topology, self.routing, self.rule
            )
        else:
            relation = dependency_relation_from_turns(
                self.topology, self.turnset, self.seq.all_channels, self.rule
            )
        return existence_verdict(relation)


class DifferentialOracle:
    """Runs one design through all five verdict paths and classifies."""

    def __init__(self, profile: SimProfile | None = None) -> None:
        self.profile = profile or SimProfile()

    # -- individual oracles ------------------------------------------------

    def theorem_verdict(
        self, design: FuzzDesign
    ) -> tuple[bool, tuple[str, ...]]:
        """(safe, violations) from the class-level theorem checks."""
        return _Trial(design).theorem()

    def static_verdict(self, design: FuzzDesign) -> tuple[bool, tuple[str, ...]]:
        """(safe, error strings) from the static analyzer's mirror rules."""
        return _Trial(design).static()

    def cdg_graph(self, design: FuzzDesign) -> DependencyGraph:
        return _Trial(design).cdg_graph()

    def cdg_verdict(self, design: FuzzDesign) -> Verdict:
        return verdict_for(self.cdg_graph(design))

    def arbitrary_verdict(self, design: FuzzDesign) -> ArbitraryVerdict:
        """The fifth oracle: the arbitrary-network existence condition."""
        return _Trial(design).arbitrary()

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
        trial = _Trial(design)
        # Build every part before the first verdict: a design that cannot
        # be built records no verdict at all.
        _ = trial.topology, trial.rule, trial.routing

        result.theorem_safe, result.theorem_violations = trial.theorem()
        result.static_safe, result.static_errors = trial.static()

        graph = trial.cdg_graph()
        verdict = verdict_for(graph)
        result.cdg_acyclic = verdict.acyclic
        result.cdg_wires = verdict.wires
        result.cdg_dependencies = verdict.dependencies
        result.cdg_cycle = tuple(str(w) for w in verdict.cycle)

        arbitrary = trial.arbitrary()
        result.arbitrary_safe = arbitrary.safe
        result.arbitrary_core = arbitrary.core
        result.arbitrary_cycle = arbitrary.cycle

        runs, forensics = self._simulate(trial, graph, verdict)
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
        self, trial: _Trial, graph: DependencyGraph, verdict: Verdict
    ) -> tuple[list[dict], DeadlockForensics | None]:
        profile = self.profile
        design, topology, rule = trial.design, trial.topology, trial.rule
        runs: list[dict] = []

        if not verdict.acyclic:
            crafted, crafted_forensics = self._crafted_ring_run(trial, graph)
            if crafted is not None:
                runs.append(crafted)
                if crafted.get("deadlocked"):
                    return runs, crafted_forensics

        routing = trial.routing
        if routing is None:
            table_kwargs: dict = {}
            if design.topology_kind == "irregular":
                # Minimal directions may dead-end around failed links;
                # route by BFS progress with a turn-legal escape fallback.
                table_kwargs = {"directions": "progressive", "fallback": "escape"}
            try:
                routing = TurnTableRouting(
                    topology, trial.seq, rule, turnset=trial.turnset,
                    validate=False, **table_kwargs,
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
        patterns.append(("hotspot", hotspot([nodes[0]], HOTSPOT_FRACTION)))

        network = (topology, routing, rule)
        sim_kwargs = {"buffer_depth": BUFFER_DEPTH, "watchdog": profile.watchdog}
        replays = []
        forensics = None
        for seed, (name, pattern) in itertools.product(profile.seeds, patterns):
            config = TrafficConfig(
                injection_rate=INJECTION_RATE,
                packet_length=PACKET_LENGTH,
                pattern=pattern,
                seed=seed,
            )
            record: dict = {"kind": "adversarial", "pattern": name, "seed": seed}
            replay, run_forensics = _reference_run(
                network, record, profile.cycles,
                lambda config=config: TrafficGenerator(topology, config),
                seed, sim_kwargs, delivered=True,
            )
            runs.append(record)
            replays.append(replay)
            if record.get("deadlocked"):
                forensics = run_forensics
                break
        self._mirror_on_vector(network, replays, sim_kwargs)
        return runs, forensics

    def _crafted_ring_run(
        self, trial: _Trial, graph: DependencyGraph
    ) -> tuple[dict | None, DeadlockForensics | None]:
        cycle = _pick_cycle(graph)
        if cycle is None:
            return None, None
        topology, rule = trial.topology, trial.rule
        classes = (
            trial.routing.channel_classes if trial.native else trial.seq.all_channels
        )
        routing = CycleRouting(topology, cycle, tuple(classes), rule)
        length = CRAFTED_BUFFER_DEPTH + 2
        k = len(cycle)
        script = []
        for i, wire in enumerate(cycle):
            dst = cycle[(i + 1) % k].dst  # two hops along the ring
            if dst == wire.src:
                return None, None
            script.append((wire.src, dst, length))
        network = (topology, routing, rule)
        sim_kwargs = {"buffer_depth": CRAFTED_BUFFER_DEPTH, "watchdog": CRAFTED_WATCHDOG}
        record: dict = {"kind": "crafted-ring", "ring": [str(w) for w in cycle]}
        replay, forensics = _reference_run(
            network, record, CRAFTED_WATCHDOG * 5,
            lambda: ScriptedTraffic({0: script}),
            0, sim_kwargs, delivered=False,
        )
        # Its own routing and watchdog: a batch of one.
        self._mirror_on_vector(network, [replay], sim_kwargs)
        return record, forensics

    def _mirror_on_vector(
        self, network: tuple, replays: list[tuple], sim_kwargs: dict
    ) -> None:
        """Replay reference runs on the vector backend and diff the stats.

        ``replays`` holds one ``(record, cycles, traffic, seed, ref_stats,
        ref_error)`` per reference run on ``network`` (``(topology,
        routing, rule)``), with a fresh copy of its traffic; they replay
        together, as one :func:`run_batch` with the runs' ``sim_kwargs``.
        Annotates each ``record`` with ``backend_agree`` (and the
        divergence strings when the engines split).  A config outside the
        vector engine's scope leaves the records unannotated — nothing to
        compare.
        """
        if not self.profile.compare_backends:
            return
        try:
            outcomes = run_batch(
                *network,
                [(cycles, traffic) for _, cycles, traffic, *_ in replays],
                **sim_kwargs,
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


def _reference_run(
    network: tuple,
    record: dict,
    cycles: int,
    traffic,
    seed: int,
    sim_kwargs: dict,
    *,
    delivered: bool,
) -> tuple[tuple, DeadlockForensics | None]:
    """Run ``traffic()`` on the reference engine and fill ``record``.

    The record gets ``unroutable`` and ``error`` when the run raised a
    routing or simulation error, else ``deadlocked``, ``cycles`` and, with
    ``delivered`` set, ``delivered``.  Returns the run's replay for
    :meth:`DifferentialOracle._mirror_on_vector` (with a fresh
    ``traffic()``) and the forensics of the deadlock it declared (``None``
    if none).
    """
    sim = NetworkSimulator(*network, seed=seed, **sim_kwargs)
    stats = error = forensics = None
    try:
        stats = sim.run(cycles, traffic())
    except (RoutingError, SimulationError) as exc:
        error = exc
        record.update(unroutable=True, error=str(exc))
    else:
        record.update(deadlocked=stats.deadlocked, cycles=stats.cycles)
        if delivered:
            record["delivered"] = stats.packets_delivered
        if stats.deadlocked:
            forensics = DeadlockForensics.capture(sim)
    return (record, cycles, traffic(), seed, stats, error), forensics


def _pick_cycle(graph: DependencyGraph) -> tuple[Wire, ...] | None:
    """A small node-simple CDG cycle (distinct routers), if any exists.

    Worms can only be parked unambiguously along a cycle whose wires
    start at distinct routers and span at least three of them; a
    2-wire back-and-forth (e.g. a lone descending U-turn) has no such
    arrangement — the caller then falls back to adversarial traffic.
    """
    for bound in (3, 4, 6, 8, 12):
        candidates = []
        seen = 0
        for nodes in simple_cycles(graph, length_bound=bound):
            seen += 1
            if seen > CYCLE_SEARCH_LIMIT:
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
