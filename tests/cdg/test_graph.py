"""Unit tests for CDG construction."""

import gc
import weakref

import networkx as nx
import pytest

from repro.cdg import build_design_cdg, build_routing_cdg, build_turn_cdg, verdict_for
from repro.core import PartitionSequence, channels, extract_turns, turnset_from_strings
from repro.routing import UnrestrictedAdaptive, xy_routing
from repro.topology import Mesh


class TestTurnCDG:
    def test_nodes_are_wires(self, mesh4):
        ts = turnset_from_strings(["X+->Y+"])
        graph = build_turn_cdg(mesh4, ts, channels("X+ Y+"))
        x_links = sum(1 for l in mesh4.links if l.dim == 0 and l.sign == +1)
        y_links = sum(1 for l in mesh4.links if l.dim == 1 and l.sign == +1)
        assert graph.number_of_nodes() == x_links + y_links

    def test_continuation_edges_always_present(self, mesh4):
        # Straight-through on the same class is a dependency even with an
        # empty turn set — this is what exposes ring cycles on tori.
        ts = turnset_from_strings([])
        graph = build_turn_cdg(mesh4, ts, channels("X+"))
        assert graph.number_of_edges() > 0
        for a, b in graph.edges:
            assert a.channel == b.channel
            assert a.dst == b.src

    def test_turn_edges_added(self, mesh4):
        ts = turnset_from_strings(["X+->Y+"])
        graph = build_turn_cdg(mesh4, ts, channels("X+ Y+"))
        cross = [
            (a, b) for a, b in graph.edges if a.channel != b.channel
        ]
        assert cross
        assert all(a.channel.dim == 0 and b.channel.dim == 1 for a, b in cross)

    def test_classes_default_to_turnset_channels(self, mesh4):
        ts = turnset_from_strings(["X+->Y+"])
        assert build_turn_cdg(mesh4, ts).number_of_nodes() > 0


class TestDesignCDG:
    def test_acyclic_for_north_last(self, mesh4, north_last_design):
        graph = build_design_cdg(mesh4, north_last_design)
        assert nx.is_directed_acyclic_graph(nx.DiGraph(graph))

    def test_cyclic_for_theorem1_violation(self, mesh4):
        bad = PartitionSequence.parse("X+ X- Y+ Y-")
        ts = extract_turns(bad, validate=False)
        graph = build_turn_cdg(mesh4, ts, bad.all_channels)
        assert not nx.is_directed_acyclic_graph(nx.DiGraph(graph))


class TestRoutingCDG:
    def test_xy_routing_cdg_acyclic(self, mesh4):
        graph = build_routing_cdg(mesh4, xy_routing(mesh4))
        assert nx.is_directed_acyclic_graph(nx.DiGraph(graph))
        # XY: only X->X, X->Y and Y->Y dependencies
        for a, b in graph.edges:
            assert not (a.channel.dim == 1 and b.channel.dim == 0)

    def test_unrestricted_cdg_cyclic(self, mesh4):
        graph = build_routing_cdg(mesh4, UnrestrictedAdaptive(mesh4))
        assert not nx.is_directed_acyclic_graph(nx.DiGraph(graph))

    def test_only_feasible_dependencies(self, mesh4):
        # A westbound arrival is never paired with an eastbound departure
        # under minimal XY routing.
        graph = build_routing_cdg(mesh4, xy_routing(mesh4))
        for a, b in graph.edges:
            assert not (a.channel.dim == b.channel.dim and a.channel.sign != b.channel.sign)


class TestDependencyGraph:
    @pytest.mark.parametrize("routed", [False, True])
    def test_edge_count_is_networkx_count(self, mesh4, north_last_design, routed):
        graph = (
            build_routing_cdg(mesh4, UnrestrictedAdaptive(mesh4))
            if routed else build_design_cdg(mesh4, north_last_design)
        )
        assert graph.number_of_edges() == nx.DiGraph(graph).number_of_edges() > 0
        a, b = next(iter(graph.edges))
        assert graph.number_of_edges(a, b) == 1
        assert graph.number_of_edges(b, a) == int(graph.has_edge(b, a))

    def test_freed_by_reference_counting(self, mesh4, north_last_design):
        """Counting edges (as every verdict does) leaves no reference cycle,
        so a dead CDG is freed at once, not at the next collector run."""
        graph = build_design_cdg(mesh4, north_last_design)
        verdict_for(graph)
        graph.number_of_edges()
        ref = weakref.ref(graph)
        gc.disable()
        try:
            del graph
            assert ref() is None
        finally:
            gc.enable()
