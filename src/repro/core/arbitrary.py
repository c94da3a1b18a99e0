"""Arbitrary-network deadlock-freedom: the existence condition as an oracle.

Mendlovic & Matias (arXiv:2503.04583) characterize when a set of routing
paths on an *arbitrary* directed network admits deadlock-free progress:
the wait-for relation between buffered channels must be peelable — every
channel must eventually reach a state where it no longer waits on any
other channel.  Operationally this is a sink-elimination fixpoint on the
channel wait graph: repeatedly delete wires with no remaining
out-dependency (they can always drain); the routing is deadlock-free iff
the fixpoint deletes everything.  A nonempty residue ("core") is exactly
a set of wires each waiting on another core wire, i.e. it contains a
dependency cycle — so on finite graphs the condition coincides with
acyclicity of the channel dependency graph, reached by an entirely
different algorithm.

That independence is the point: :mod:`repro.cdg` answers the same
question through a depth-first cycle search (:mod:`repro.cdg.cycles`)
over a networkx ``DiGraph``; this module hand-rolls the relation *and*
the decision procedure with no shared code (it imports neither), which
makes it a genuine fifth oracle for the differential fuzzer
(:mod:`repro.fuzz.oracle`).  Everything iterates in sorted order,
so verdicts are deterministic and invariant under node relabeling.

Two relation builders mirror the two CDG flavours:

* :func:`dependency_relation_from_turns` — conservative: every allowed
  class transition contributes a wait edge (any router restricted to the
  design's turns is covered);
* :func:`dependency_relation_from_routing` — the wait edges some
  destination actually realizes under a concrete routing function
  (feasible occupancies only).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.channel import Channel
from repro.core.turns import TurnSet
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes
from repro.topology.wires import Wire, wires_for

if TYPE_CHECKING:
    from repro.routing.base import RoutingFunction

#: A wait-for relation: each wire maps to the wires it may wait on.
DependencyRelation = Mapping[Wire, tuple[Wire, ...]]


@dataclass(frozen=True)
class ArbitraryVerdict:
    """Outcome of the arbitrary-network existence check.

    ``safe`` is True when sink-peeling drains the whole wait graph.  When
    unsafe, ``core`` counts the surviving wires and ``cycle`` names one
    dependency cycle inside the core (canonical min-start rotation of
    ``str(wire)`` labels).
    """

    safe: bool
    wires: int
    dependencies: int
    core: int
    cycle: tuple[str, ...] = ()

    def describe(self) -> str:
        """One-line human summary."""
        if self.safe:
            return (
                f"deadlock-free routing exists: all {self.wires} wires drained "
                f"({self.dependencies} wait edges)"
            )
        return (
            f"no deadlock-free guarantee: {self.core}/{self.wires} wires stuck "
            f"in the wait core (cycle: {' -> '.join(self.cycle)})"
        )


def dependency_relation_from_turns(
    topology: Topology,
    turnset: TurnSet,
    channel_classes: Iterable[Channel] | None = None,
    rule: ClassRule = no_classes,
) -> dict[Wire, tuple[Wire, ...]]:
    """The conservative wait-for relation of an allowed-turn set.

    Wire ``a`` waits on wire ``b`` when ``b`` leaves the router ``a``
    enters and the class transition is the identity or an allowed turn —
    the same relation :func:`repro.cdg.build_turn_cdg` encodes, built
    without networkx.
    """
    classes = tuple(channel_classes) if channel_classes is not None else tuple(turnset.channels())
    wires = wires_for(topology, classes, rule)
    outgoing: dict = {}
    for wire in wires:
        outgoing.setdefault(wire.src, []).append(wire)
    relation: dict[Wire, tuple[Wire, ...]] = {}
    for a in sorted(wires):
        waits = [
            b
            for b in outgoing.get(a.dst, ())
            if a.channel == b.channel or turnset.allows(a.channel, b.channel)
        ]
        relation[a] = tuple(sorted(waits))
    return relation


def dependency_relation_from_routing(
    topology: Topology,
    routing: "RoutingFunction",
    rule: ClassRule = no_classes,
) -> dict[Wire, tuple[Wire, ...]]:
    """The wait-for relation a concrete routing function realizes.

    Per destination, only *feasible* occupancies contribute: starting
    from every injection candidate, follow the routing relation and
    record each offered next hop as a wait edge (the semantics of
    :func:`repro.cdg.build_routing_cdg`).
    """
    wires = wires_for(topology, routing.channel_classes, rule)
    wire_lookup: dict[tuple, Wire] = {(w.src, w.dst, w.channel): w for w in wires}
    waits: dict[Wire, set[Wire]] = {w: set() for w in wires}
    for dst in sorted(topology.nodes):
        frontier: list[Wire] = []
        seen: set[Wire] = set()
        for src in sorted(topology.nodes):
            if src == dst:
                continue
            for nxt, ch in routing.candidates(src, dst, None):
                a = wire_lookup.get((src, nxt, ch))
                if a is not None and a not in seen:
                    seen.add(a)
                    frontier.append(a)
        while frontier:
            a = frontier.pop()
            if a.dst == dst:
                continue
            for nxt, ch in routing.candidates(a.dst, dst, a.channel):
                b = wire_lookup.get((a.dst, nxt, ch))
                if b is None:
                    continue
                waits[a].add(b)
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return {w: tuple(sorted(waits[w])) for w in sorted(waits)}


def existence_verdict(relation: DependencyRelation) -> ArbitraryVerdict:
    """Decide the existence condition by sink-peeling the wait graph.

    Kahn-style elimination on the reversed relation: wires with no
    remaining out-dependency drain and are deleted; deletion may free
    their predecessors.  The fixpoint residue is the wait core — empty
    iff a deadlock-free schedule exists iff the relation is acyclic.

    >>> from repro.topology.wires import Wire
    >>> from repro.topology.base import Link
    >>> from repro.core.channel import Channel
    >>> a = Wire(Link((0,), (1,), 0, 1), Channel(0, 1))
    >>> b = Wire(Link((1,), (0,), 0, -1), Channel(0, -1))
    >>> existence_verdict({a: (b,), b: ()}).safe
    True
    >>> existence_verdict({a: (b,), b: (a,)}).safe
    False
    """
    nodes: set[Wire] = set(relation)
    for out in relation.values():
        nodes.update(out)
    succs: dict[Wire, tuple[Wire, ...]] = {
        w: tuple(sorted(set(relation.get(w, ())))) for w in nodes
    }
    out_deg = {w: len(succs[w]) for w in nodes}
    preds: dict[Wire, list[Wire]] = {w: [] for w in nodes}
    for w in sorted(nodes):
        for s in succs[w]:
            preds[s].append(w)
    queue: deque[Wire] = deque(sorted(w for w in nodes if out_deg[w] == 0))
    removed: set[Wire] = set()
    while queue:
        w = queue.popleft()
        removed.add(w)
        for p in preds[w]:
            out_deg[p] -= 1
            if out_deg[p] == 0:
                queue.append(p)
    core = nodes - removed
    n_edges = sum(len(s) for s in succs.values())
    if not core:
        return ArbitraryVerdict(True, len(nodes), n_edges, 0)
    return ArbitraryVerdict(
        False, len(nodes), n_edges, len(core), _witness_cycle(core, succs)
    )


def _witness_cycle(core: set[Wire], succs: Mapping[Wire, tuple[Wire, ...]]) -> tuple[str, ...]:
    """One dependency cycle inside the wait core, canonically rotated.

    Every core wire has at least one successor in the core (that is what
    kept it from draining), so walking min-successors must revisit a
    wire; the revisit closes the cycle.
    """
    start = min(core)
    path = [start]
    index = {start: 0}
    cur = start
    while True:
        cur = min(s for s in succs[cur] if s in core)
        if cur in index:
            cycle = path[index[cur]:]
            break
        index[cur] = len(path)
        path.append(cur)
    pivot = cycle.index(min(cycle))
    cycle = cycle[pivot:] + cycle[:pivot]
    return tuple(str(w) for w in cycle)


def verdict_from_turns(
    topology: Topology,
    turnset: TurnSet,
    channel_classes: Iterable[Channel] | None = None,
    rule: ClassRule = no_classes,
) -> ArbitraryVerdict:
    """Existence verdict for the conservative turn relation."""
    return existence_verdict(
        dependency_relation_from_turns(topology, turnset, channel_classes, rule)
    )


def verdict_from_routing(
    topology: Topology,
    routing: "RoutingFunction",
    rule: ClassRule = no_classes,
) -> ArbitraryVerdict:
    """Existence verdict for a concrete routing function's relation."""
    return existence_verdict(dependency_relation_from_routing(topology, routing, rule))
