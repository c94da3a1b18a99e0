"""Concrete channel dependency graph construction (Dally & Seitz 1987).

The CDG has one node per :class:`~repro.topology.wires.Wire` (a virtual
channel on a physical link) and an edge from wire *a* to wire *b* whenever
the routing relation can make a packet hold *a* while requesting *b* — i.e.
*b* leaves the router *a* enters, and the channel-class transition is
permitted.

Two relations are supported:

* **turns** (conservative) — every allowed class transition induces the
  dependency, including transitions a minimal router would never take.
  Acyclicity of this graph is the strongest statement: *any* router using
  only the design's turns is deadlock-free, minimal or not.
* **routing** — dependencies restricted to transitions some destination
  actually uses under a given routing function (the textbook CDG of a
  routing algorithm).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, KeysView
from typing import TYPE_CHECKING

from repro.core.channel import Channel
from repro.core.extraction import extract_turns
from repro.core.sequence import PartitionSequence
from repro.core.turns import TurnSet
from repro.topology.base import Coord, Topology
from repro.topology.classes import ClassRule, no_classes
from repro.topology.wires import Wire, wires_for

if TYPE_CHECKING:
    from repro.routing.base import RoutingFunction


class DependencyGraph(dict):
    """A dependency graph: each node mapped to the list of its successors.

    Nodes and each successor list keep insertion order, and no edge is
    listed twice.  The graph kernels of :mod:`repro.cdg.cycles` read it as
    it is; the few ``networkx.DiGraph`` names below are the ones callers
    use, and ``networkx.DiGraph(graph)`` rebuilds the same graph in the
    same node and edge order.
    """

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Add ``u -> v`` (and any missing endpoint) unless already there."""
        succ = self.setdefault(u, [])
        self.setdefault(v, [])
        if v not in succ:
            succ.append(v)

    @property
    def nodes(self) -> KeysView:
        return self.keys()

    @property
    def edges(self) -> list[tuple]:
        return [(u, v) for u, succ in self.items() for v in succ]

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return v in self.get(u, ())

    def number_of_nodes(self) -> int:
        return len(self)

    def number_of_edges(self, u: Hashable | None = None, v: Hashable | None = None) -> int:
        if u is None:
            return sum(map(len, self.values()))
        return int(self.has_edge(u, v))


def build_turn_cdg(
    topology: Topology,
    turnset: TurnSet,
    channel_classes: Iterable[Channel] | None = None,
    rule: ClassRule = no_classes,
) -> DependencyGraph:
    """The conservative CDG induced by an allowed-turn set.

    Parameters
    ----------
    channel_classes:
        The design's channel inventory.  Defaults to every class mentioned
        by the turn set.
    """
    if channel_classes is None:
        channel_classes = turnset.channels()
    classes = tuple(dict.fromkeys(channel_classes))  # each class once
    wires = wires_for(topology, classes, rule)
    outgoing: dict[Coord, list[Wire]] = {}
    for wire in wires:
        outgoing.setdefault(wire.src, []).append(wire)
    # A packet may always continue straight on its own channel class
    # (same partition, zero-degree, not a turn); any other transition
    # needs an allowed turn.
    legal = {
        a: frozenset(b for b in classes if a == b or turnset.allows(a, b)) for a in classes
    }

    graph = DependencyGraph()
    for a in wires:
        # Wires leaving the router a enters, on a class a may move to.
        allowed = legal[a.channel]
        graph[a] = [b for b in outgoing.get(a.dst, ()) if b.channel in allowed]
    return graph


def build_design_cdg(
    topology: Topology,
    design: PartitionSequence,
    rule: ClassRule = no_classes,
    *,
    transitions: str = "all",
) -> DependencyGraph:
    """Conservative CDG of an EbDa design (partitions -> turns -> wires)."""
    turnset = extract_turns(design, transitions=transitions)
    return build_turn_cdg(topology, turnset, design.all_channels, rule)


def build_routing_cdg(
    topology: Topology,
    routing: "RoutingFunction",
    rule: ClassRule = no_classes,
) -> DependencyGraph:
    """The textbook CDG of a routing function.

    Edge ``a -> b`` exists when, for some destination, a packet that
    arrived over wire ``a`` is offered wire ``b`` as a next hop.  Injection
    (no incoming wire) contributes wires as nodes but no edges.
    """
    wires = wires_for(topology, routing.channel_classes, rule)
    wire_lookup: dict[tuple, Wire] = {}
    for w in wires:
        wire_lookup[(w.src, w.dst, w.channel)] = w

    graph = DependencyGraph((w, []) for w in wires)

    # Per destination, trace the wires packets can actually occupy: start
    # from every injection candidate and follow the routing relation.  An
    # edge a -> b requires a *feasible* occupancy of a — pairing every
    # incoming wire with every destination would add dependencies no packet
    # can create (e.g. "arrived eastbound, destination to the west" under
    # minimal routing) and falsely flag deadlock-free algorithms as cyclic.
    for dst in topology.nodes:
        frontier: list[Wire] = []
        seen: set[Wire] = set()
        for src in topology.nodes:
            if src == dst:
                continue
            for nxt, ch in routing.candidates(src, dst, None):
                a = wire_lookup.get((src, nxt, ch))
                if a is not None and a not in seen:
                    seen.add(a)
                    frontier.append(a)
        while frontier:
            a = frontier.pop()
            node = a.dst
            if node == dst:
                continue
            for nxt, ch in routing.candidates(node, dst, a.channel):
                b = wire_lookup.get((node, nxt, ch))
                if b is None:
                    continue
                graph.add_edge(a, b)
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return graph
