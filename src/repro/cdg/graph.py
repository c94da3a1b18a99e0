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

from typing import TYPE_CHECKING, Iterable

import networkx as nx

from repro.core.channel import Channel
from repro.core.extraction import extract_turns
from repro.core.sequence import PartitionSequence
from repro.core.turns import TurnSet
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes
from repro.topology.wires import Wire, wires_for

if TYPE_CHECKING:
    from repro.routing.base import RoutingFunction


class DependencyGraph(nx.DiGraph):
    """The ``DiGraph`` the CDG builders return.

    It only counts its edges differently: straight from the successor
    lists, in C.  ``DiGraph.number_of_edges()`` sums a degree view that
    it caches on the graph and that points back at it, which costs a
    Python-level pass over the nodes and leaves the graph a reference
    cycle: dead CDGs then stay in memory until the cycle collector runs.
    """

    def number_of_edges(self, u=None, v=None) -> int:
        if u is None:
            return sum(map(len, self._succ.values()))
        return super().number_of_edges(u, v)


def build_turn_cdg(
    topology: Topology,
    turnset: TurnSet,
    channel_classes: Iterable[Channel] | None = None,
    rule: ClassRule = no_classes,
) -> "nx.DiGraph":
    """The conservative CDG induced by an allowed-turn set.

    Parameters
    ----------
    channel_classes:
        The design's channel inventory.  Defaults to every class mentioned
        by the turn set.
    """
    classes = tuple(channel_classes) if channel_classes is not None else tuple(turnset.channels())
    wires = wires_for(topology, classes, rule)
    graph = DependencyGraph()
    graph.add_nodes_from(wires)

    incoming: dict = {}
    for wire in wires:
        incoming.setdefault(wire.dst, []).append(wire)
    outgoing: dict = {}
    for wire in wires:
        outgoing.setdefault(wire.src, []).append(wire)

    for node, in_wires in incoming.items():
        for a in in_wires:
            for b in outgoing.get(node, ()):  # wires leaving the same router
                # A packet may always continue straight on its own channel
                # class (same partition, zero-degree, not a turn); any other
                # transition needs an allowed turn.
                if a.channel == b.channel or turnset.allows(a.channel, b.channel):
                    graph.add_edge(a, b)
    return graph


def build_design_cdg(
    topology: Topology,
    design: PartitionSequence,
    rule: ClassRule = no_classes,
    *,
    transitions: str = "all",
) -> "nx.DiGraph":
    """Conservative CDG of an EbDa design (partitions -> turns -> wires)."""
    turnset = extract_turns(design, transitions=transitions)
    return build_turn_cdg(topology, turnset, design.all_channels, rule)


def build_routing_cdg(
    topology: Topology,
    routing: "RoutingFunction",
    rule: ClassRule = no_classes,
) -> "nx.DiGraph":
    """The textbook CDG of a routing function.

    Edge ``a -> b`` exists when, for some destination, a packet that
    arrived over wire ``a`` is offered wire ``b`` as a next hop.  Injection
    (no incoming wire) contributes wires as nodes but no edges.
    """
    wires = wires_for(topology, routing.channel_classes, rule)
    wire_lookup: dict[tuple, Wire] = {}
    for w in wires:
        wire_lookup[(w.src, w.dst, w.channel)] = w

    graph = DependencyGraph()
    graph.add_nodes_from(wires)

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
