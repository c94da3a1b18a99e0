"""Abstract (class-level) dependency graphs.

The abstract graph relates channel *classes* rather than concrete wires.
Inside a partition it legitimately contains cycles (``X+ -> Y- -> X+``);
Theorem 1's geometric argument is precisely that such class cycles cannot
close on a concrete network.  The abstract graph is still useful:

* cross-partition edges must form a DAG over partitions (Theorem 3), which
  :func:`partition_order_graph` checks;
* the strongly connected components of the abstract graph show the
  designer the partition structure a turn set implies.
"""

from __future__ import annotations

from collections import Counter

from repro.cdg.cycles import strongly_connected_components
from repro.cdg.graph import DependencyGraph
from repro.core.sequence import PartitionSequence
from repro.core.turns import TurnSet


def abstract_graph(turnset: TurnSet) -> DependencyGraph:
    """Class-level dependency graph: one node per channel class."""
    graph = DependencyGraph((ch, []) for ch in turnset.channels())
    for t in turnset.turns:
        graph.add_edge(t.src, t.dst)
    return graph


def partition_order_graph(design: PartitionSequence, turnset: TurnSet) -> DependencyGraph:
    """Partition-level graph: an edge P -> Q when some turn crosses P to Q.

    Node names are the partition names with unnamed partitions falling
    back to ``P<i>``.  A user-chosen name may collide with a fallback (a
    partition literally named "P1" next to the unnamed partition at index
    1) or with another user name; every occurrence of a duplicated name is
    disambiguated with its index (``P1#0``, ``P1#1``) so distinct
    partitions never merge into one node.
    """
    names = [p.name or f"P{i}" for i, p in enumerate(design)]
    tally = Counter(names)
    names = [
        f"{name}#{i}" if tally[name] > 1 else name
        for i, name in enumerate(names)
    ]
    graph = DependencyGraph((name, []) for name in names)
    index = {}
    for i, part in enumerate(design):
        for ch in part:
            index[ch] = i
    for t in turnset.turns:
        src_p = index.get(t.src)
        dst_p = index.get(t.dst)
        if src_p is None or dst_p is None or src_p == dst_p:
            continue
        graph.add_edge(names[src_p], names[dst_p])
    return graph


def cross_partition_edges_ascend(design: PartitionSequence, turnset: TurnSet) -> bool:
    """Theorem 3 sanity: every cross-partition turn flows forward.

    True for any turn set produced by
    :func:`repro.core.extraction.extract_turns`; useful when validating a
    hand-written turn set against a claimed partitioning.
    """
    index = {}
    for i, part in enumerate(design):
        for ch in part:
            index[ch] = i
    for t in turnset.turns:
        src_p = index.get(t.src)
        dst_p = index.get(t.dst)
        if src_p is None or dst_p is None:
            return False
        if src_p > dst_p:
            return False
    return True


def recover_partitions(turnset: TurnSet) -> list[frozenset]:
    """Infer a partition structure from a turn set (design archaeology).

    Channels mutually reachable through allowed turns form the strongly
    connected components of the abstract graph; the components, ordered
    topologically (the reverse of the order they are found in), are a
    candidate partition sequence that would generate (a superset of) the
    turn set.  Useful to reverse-engineer classic turn models into EbDa
    designs.
    """
    components = list(strongly_connected_components(abstract_graph(turnset)))
    return [frozenset(c) for c in reversed(components)]
