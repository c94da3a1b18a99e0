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
over a :class:`~repro.cdg.graph.DependencyGraph` successor map; this
module hand-rolls the relation *and* the decision procedure with no
shared code (it imports neither), which makes it a genuine fifth oracle
for the differential fuzzer (:mod:`repro.fuzz.oracle`).  Relations are
built in sorted wire order (one sort per wire set); the peel runs on
integer wire indices, and its witness walks the core in sorted order,
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
from repro.topology.base import Coord, Topology
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
    the same relation :func:`repro.cdg.build_turn_cdg` encodes, built by
    code of its own.
    """
    classes = tuple(channel_classes) if channel_classes is not None else tuple(turnset.channels())
    # Sorted once: outgoing lists fill in sorted order, so every filtered
    # successor tuple is already sorted.
    order = sorted(wires_for(topology, classes, rule), key=Wire.order_key)
    outgoing: dict[Coord, list[Wire]] = {}
    for wire in order:
        outgoing.setdefault(wire.src, []).append(wire)
    legal = {
        a: frozenset(b for b in classes if a == b or turnset.allows(a, b)) for a in classes
    }
    relation: dict[Wire, tuple[Wire, ...]] = {}
    for a in order:
        allowed = legal[a.channel]
        relation[a] = tuple([b for b in outgoing.get(a.dst, ()) if b.channel in allowed])
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
    order = sorted(set(wires_for(topology, routing.channel_classes, rule)), key=Wire.order_key)
    lookup = {(w.src, w.dst, w.channel): i for i, w in enumerate(order)}
    waits: list[set[int]] = [set() for _ in order]
    nodes = sorted(topology.nodes)
    for dst in nodes:
        frontier: list[int] = []
        seen: set[int] = set()
        for src in nodes:
            if src == dst:
                continue
            for nxt, ch in routing.candidates(src, dst, None):
                i = lookup.get((src, nxt, ch))
                if i is not None and i not in seen:
                    seen.add(i)
                    frontier.append(i)
        while frontier:
            i = frontier.pop()
            a = order[i]
            if a.dst == dst:
                continue
            for nxt, ch in routing.candidates(a.dst, dst, a.channel):
                j = lookup.get((a.dst, nxt, ch))
                if j is None:
                    continue
                waits[i].add(j)
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
    return {w: tuple(order[j] for j in sorted(waits[i])) for i, w in enumerate(order)}


def existence_verdict(relation: DependencyRelation) -> ArbitraryVerdict:
    """Decide the existence condition by sink-peeling the wait graph.

    Kahn-style elimination on the reversed relation: wires with no
    remaining out-dependency drain and are deleted; deletion may free
    their predecessors.  The fixpoint residue is the wait core — empty
    iff a deadlock-free schedule exists iff the relation is acyclic.

    The peel runs on integer wire indices and needs no order: only the
    witness does, so only a nonempty core is sorted (once).

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
    wires = list(nodes)
    index = {w: i for i, w in enumerate(wires)}
    succs = [tuple({index[s] for s in relation.get(w, ())}) for w in wires]
    out_deg = [len(s) for s in succs]
    preds: list[list[int]] = [[] for _ in wires]
    for i, out in enumerate(succs):
        for j in out:
            preds[j].append(i)
    queue = deque(i for i, d in enumerate(out_deg) if d == 0)
    while queue:
        for p in preds[queue.popleft()]:
            out_deg[p] -= 1
            if out_deg[p] == 0:
                queue.append(p)
    # A wire drains exactly when its out-degree reaches zero, so the
    # wires still waiting on something are the core.
    core = [i for i, d in enumerate(out_deg) if d > 0]
    n_edges = sum(map(len, succs))
    if not core:
        return ArbitraryVerdict(True, len(wires), n_edges, 0)
    cycle = _witness_cycle(wires, core, succs)
    return ArbitraryVerdict(False, len(wires), n_edges, len(core), cycle)


def _witness_cycle(
    wires: list[Wire], core: list[int], succs: list[tuple[int, ...]]
) -> tuple[str, ...]:
    """One dependency cycle inside the wait core, canonically rotated.

    Every core wire has at least one successor in the core (that is what
    kept it from draining), so walking min-successors must revisit a
    wire; the revisit closes the cycle.  "Min" is wire order: the core is
    sorted once and each core index replaced by its rank.
    """
    ranked = sorted(core, key=lambda i: wires[i].order_key())
    rank = {i: r for r, i in enumerate(ranked)}
    path = [0]
    position = {0: 0}
    cur = 0
    while True:
        cur = min(rank[s] for s in succs[ranked[cur]] if s in rank)
        if cur in position:
            cycle = path[position[cur]:]
            break
        position[cur] = len(path)
        path.append(cur)
    pivot = cycle.index(min(cycle))
    return tuple(str(wires[ranked[r]]) for r in cycle[pivot:] + cycle[:pivot])


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
