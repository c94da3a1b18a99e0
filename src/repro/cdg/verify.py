"""Deadlock-freedom verdicts: acyclicity of the channel dependency graph.

Per Dally's theorem, a routing relation is deadlock-free iff its channel
dependency graph is acyclic.  :func:`verify_design` is the library's
one-call verification entry point: it compiles an EbDa design to turns,
instantiates them on a concrete topology and reports acyclicity together
with a cycle witness when one exists.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.sequence import PartitionSequence
from repro.core.turns import TurnSet
from repro.cdg.cycles import first_cycle, simple_cycles, strongly_connected_components
from repro.cdg.graph import DependencyGraph, build_design_cdg, build_routing_cdg, build_turn_cdg
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes
from repro.topology.wires import Wire

if TYPE_CHECKING:
    from repro.routing.base import RoutingFunction


@dataclass(frozen=True)
class Verdict:
    """Outcome of a deadlock-freedom verification.

    Attributes
    ----------
    acyclic:
        True when the channel dependency graph has no cycle — the design
        is deadlock-free by Dally's theorem.
    wires:
        Number of concrete virtual channels (CDG nodes).
    dependencies:
        Number of channel dependencies (CDG edges).
    cycle:
        A witness cycle (list of wires, each depending on the next, last
        depending on first) when ``acyclic`` is False.
    """

    acyclic: bool
    wires: int
    dependencies: int
    cycle: tuple[Wire, ...] = ()

    def __bool__(self) -> bool:
        return self.acyclic

    def __str__(self) -> str:
        status = "ACYCLIC (deadlock-free)" if self.acyclic else "CYCLIC (deadlock possible)"
        extra = ""
        if self.cycle:
            extra = "\n  cycle: " + " -> ".join(str(w) for w in self.cycle[:8])
            if len(self.cycle) > 8:
                extra += f" ... ({len(self.cycle)} wires)"
        return f"{status}: {self.wires} wires, {self.dependencies} dependencies{extra}"


def verdict_for(graph: DependencyGraph) -> Verdict:
    """Evaluate an already-built dependency graph."""
    cycle = first_cycle(graph)
    return Verdict(cycle is None, graph.number_of_nodes(), graph.number_of_edges(), cycle or ())


def verify_design(
    design: PartitionSequence,
    topology: Topology,
    rule: ClassRule = no_classes,
    *,
    transitions: str = "all",
) -> Verdict:
    """Verify an EbDa design on a concrete topology.

    >>> from repro.topology import Mesh
    >>> from repro.core import PartitionSequence
    >>> verify_design(PartitionSequence.parse("X+ X- Y- -> Y+"), Mesh(4, 4)).acyclic
    True
    """
    return verdict_for(build_design_cdg(topology, design, rule, transitions=transitions))


def verify_turnset(
    turnset: TurnSet,
    topology: Topology,
    rule: ClassRule = no_classes,
) -> Verdict:
    """Verify an explicit turn set on a concrete topology."""
    return verdict_for(build_turn_cdg(topology, turnset, rule=rule))


def verify_routing(
    routing: "RoutingFunction",
    topology: Topology,
    rule: ClassRule = no_classes,
) -> Verdict:
    """Verify a routing function via its textbook CDG."""
    return verdict_for(build_routing_cdg(topology, routing, rule))


def cyclic_core(graph: DependencyGraph) -> frozenset[Wire]:
    """Every wire that participates in at least one dependency cycle.

    The union of all non-trivial strongly connected components (plus
    self-looping wires).  A watchdog-declared deadlock's held wires must
    lie inside this set when the deadlock is genuinely the CDG cycle's —
    the differential fuzzer uses that containment as a cross-oracle
    consistency signal.
    """
    core: set[Wire] = set()
    for scc in strongly_connected_components(graph):
        if len(scc) > 1 or scc[0] in graph[scc[0]]:
            core.update(scc)
    return frozenset(core)


class CycleEnumerationTruncated(Warning):
    """``all_cycles`` hit its ``limit`` — the returned list is incomplete.

    Simple-cycle counts grow exponentially with CDG size, so truncation is
    routine for badly broken designs; what must never happen is a caller
    mistaking a truncated list for the complete census.  The warning makes
    the cut observable (and turnable into an error via ``filterwarnings``).
    """


def all_cycles(graph: DependencyGraph, limit: int = 50) -> list[tuple[Wire, ...]]:
    """Up to ``limit`` simple cycles of a dependency graph (diagnostics).

    When the graph holds more than ``limit`` simple cycles the list is cut
    short and a :class:`CycleEnumerationTruncated` warning is issued —
    truncation is signalled, never silent.
    """
    out: list[tuple[Wire, ...]] = []
    for cycle in simple_cycles(graph):
        if len(out) >= limit:
            warnings.warn(
                f"cycle enumeration truncated at limit={limit}; the graph"
                " holds more simple cycles than returned",
                CycleEnumerationTruncated,
                stacklevel=2,
            )
            break
        out.append(cycle)
    return out
