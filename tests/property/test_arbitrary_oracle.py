"""Property tests for the arbitrary-network existence condition.

The fifth fuzzing oracle (:mod:`repro.core.arbitrary`) decides
deadlock-free-routing existence by sink-peeling the wire dependency
relation to a fixpoint.  On any concrete dependency relation that is
exactly the edge set of a channel dependency graph, the verdict must
coincide with CDG acyclicity — here cross-checked against networkx on
random small irregular digraphs with random turn sets — and must be
invariant under relabeling the network's nodes (the condition is about
the dependency structure, not the coordinate names).
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdg.graph import build_routing_cdg, build_turn_cdg
from repro.core import turnset_from_strings
from repro.core.arbitrary import (
    dependency_relation_from_routing,
    dependency_relation_from_turns,
    existence_verdict,
    verdict_from_turns,
)
from repro.core.channel import Channel
from repro.routing import DragonflyRouting
from repro.topology import Dragonfly, GraphTopology
from repro.topology.classes import no_classes

#: Channel inventory for random designs on a GraphTopology: every link is
#: (dim 0, sign +1), so distinct VCs are the only routing freedom.
CHANNELS = (Channel(0, +1, 1), Channel(0, +1, 2), Channel(0, +1, 3))
#: All possible inter-VC transitions a random turn set may grant.
POSSIBLE_TURNS = tuple(
    f"{a}->{b}" for a in CHANNELS for b in CHANNELS if a != b
)


@st.composite
def graphs(draw):
    """A random small digraph as an edge list over up to 6 nodes."""
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = [(i,) for i in range(n)]
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edges = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True)
    )
    return edges


@st.composite
def turnsets(draw):
    grants = draw(
        st.lists(
            st.sampled_from(POSSIBLE_TURNS), min_size=0, max_size=6, unique=True
        )
    )
    return turnset_from_strings(grants)


@given(edges=graphs(), turnset=turnsets())
@settings(max_examples=60, deadline=None)
def test_existence_verdict_matches_cdg_acyclicity(edges, turnset):
    topology = GraphTopology(edges)
    verdict = verdict_from_turns(topology, turnset, CHANNELS)
    graph = build_turn_cdg(topology, turnset, CHANNELS)
    assert verdict.safe == nx.is_directed_acyclic_graph(nx.DiGraph(graph))
    if not verdict.safe:
        # The peeled core is the set of wires from which a cycle stays
        # reachable; it contains every wire on a cyclic SCC.
        cyclic = set()
        for scc in nx.strongly_connected_components(nx.DiGraph(graph)):
            members = list(scc)
            if len(members) > 1 or graph.has_edge(members[0], members[0]):
                cyclic.update(members)
        assert verdict.core >= len(cyclic) >= 1


@given(
    edges=graphs(),
    turnset=turnsets(),
    offset=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_verdict_invariant_under_node_relabeling(edges, turnset, offset):
    """Renaming every node preserves safety and the core size."""
    original = verdict_from_turns(GraphTopology(edges), turnset, CHANNELS)
    relabeled_edges = [
        ((u[0] * 7 + offset,), (v[0] * 7 + offset,)) for u, v in edges
    ]
    relabeled = verdict_from_turns(
        GraphTopology(relabeled_edges), turnset, CHANNELS
    )
    assert original.safe == relabeled.safe
    assert original.core == relabeled.core
    assert original.wires == relabeled.wires
    assert original.dependencies == relabeled.dependencies


@given(edges=graphs(), turnset=turnsets())
@settings(max_examples=30, deadline=None)
def test_witness_cycle_is_a_real_dependency_cycle(edges, turnset):
    topology = GraphTopology(edges)
    relation = dependency_relation_from_turns(topology, turnset, CHANNELS)
    verdict = existence_verdict(relation)
    if verdict.safe:
        assert verdict.cycle == ()
        return
    cycle = verdict.cycle
    assert len(cycle) >= 1
    wires = set(relation) | {s for succs in relation.values() for s in succs}
    by_name = {str(w): w for w in wires}
    for i, name in enumerate(cycle):
        cur = by_name[name]
        nxt = by_name[cycle[(i + 1) % len(cycle)]]
        assert nxt in relation.get(cur, ()), f"{name} does not depend on {nxt}"


def test_routed_relation_mirrors_routed_cdg_on_dragonfly():
    """The routing-restricted relation has exactly the routed CDG's edges."""
    topology = Dragonfly(3)
    routing = DragonflyRouting(topology)
    relation = dependency_relation_from_routing(topology, routing, routing.rule)
    graph = build_routing_cdg(topology, routing, routing.rule)
    relation_edges = {
        (str(a), str(b)) for a, succs in relation.items() for b in succs
    }
    graph_edges = {(str(a), str(b)) for a, b in graph.edges}
    assert relation_edges == graph_edges
    assert existence_verdict(relation).safe == nx.is_directed_acyclic_graph(
        nx.DiGraph(graph)
    )


def test_single_vc_ring_is_unsafe_and_second_vc_heals_it():
    """The textbook case: a 3-ring on one VC deadlocks; a dateline VC fixes it."""
    ring = GraphTopology([((0,), (1,)), ((1,), (2,)), ((2,), (0,))])
    one_vc = verdict_from_turns(
        ring, turnset_from_strings([]), (Channel(0, +1, 1),)
    )
    assert not one_vc.safe
    assert one_vc.core == 3

    def dateline(link):
        return "w" if link.src == (2,) else "r"

    classes = (Channel(0, +1, 1, "r"), Channel(0, +1, 1, "w"))
    healed = verdict_from_turns(
        ring, turnset_from_strings(["X+@r->X+@w"]), classes, rule=dateline
    )
    assert healed.safe
