"""Unit tests for abstract (class-level) dependency graphs."""

import networkx as nx

from repro.cdg import (
    abstract_graph,
    cross_partition_edges_ascend,
    partition_order_graph,
    recover_partitions,
)
from repro.core import PartitionSequence, extract_turns, turnset_from_strings


class TestAbstractGraph:
    def test_intra_partition_cycles_expected(self):
        # The abstract graph of {X+, X-, Y-} legitimately cycles
        # (X+ -> Y- -> X+); Theorem 1 is about the *concrete* graph.
        seq = PartitionSequence.parse("X+ X- Y-")
        graph = abstract_graph(extract_turns(seq))
        assert not nx.is_directed_acyclic_graph(nx.DiGraph(graph))

    def test_nodes_are_channel_classes(self):
        seq = PartitionSequence.parse("X+ -> Y+")
        graph = abstract_graph(extract_turns(seq))
        assert graph.number_of_nodes() == 2


class TestPartitionOrderGraph:
    def test_edges_follow_sequence(self):
        seq = PartitionSequence.parse("X+ X- Y- -> Y+")
        ts = extract_turns(seq)
        pog = partition_order_graph(seq, ts)
        assert list(pog.edges) == [("PA", "PB")]

    def test_dag_for_many_partitions(self):
        seq = PartitionSequence.parse("X+ -> Y+ -> X- -> Y-")
        pog = partition_order_graph(seq, extract_turns(seq))
        assert nx.is_directed_acyclic_graph(nx.DiGraph(pog))
        assert pog.number_of_edges() == 6  # all ascending pairs


class TestAscendCheck:
    def test_extracted_turnsets_always_ascend(self):
        seq = PartitionSequence.parse("X- -> X+ Y+ Y-")
        assert cross_partition_edges_ascend(seq, extract_turns(seq))

    def test_descending_turn_detected(self):
        seq = PartitionSequence.parse("X+ -> Y+")
        bad = turnset_from_strings(["Y+->X+"])
        assert not cross_partition_edges_ascend(seq, bad)

    def test_foreign_channel_detected(self):
        seq = PartitionSequence.parse("X+ -> Y+")
        foreign = turnset_from_strings(["X+->Z+"])
        assert not cross_partition_edges_ascend(seq, foreign)


class TestRecoverPartitions:
    def test_archaeology_on_glass_ni_candidates(self):
        # Feeding a raw turn-model turn set to the condensation recovers
        # the EbDa partition sequence that generates it.
        from repro.cdg import deadlock_free_candidates, turn_label
        from repro.core import channels

        expected = {
            frozenset({"SW", "NW"}): [  # west-first
                frozenset(channels("X-")),
                frozenset(channels("X+ Y+ Y-")),
            ],
            frozenset({"NE", "NW"}): [  # north-last
                frozenset(channels("X+ X- Y-")),
                frozenset(channels("Y+")),
            ],
            frozenset({"ES", "NW"}): [  # negative-first
                frozenset(channels("X- Y-")),
                frozenset(channels("X+ Y+")),
            ],
        }
        found = 0
        for cand in deadlock_free_candidates():
            key = frozenset(
                {turn_label(cand.prohibited_cw), turn_label(cand.prohibited_ccw)}
            )
            if key in expected:
                assert recover_partitions(cand.turnset()) == expected[key]
                found += 1
        assert found == 3

    def test_recovers_intra_partition_components(self):
        seq = PartitionSequence.parse("X+ X- Y- -> Y+")
        groups = recover_partitions(extract_turns(seq))
        from repro.core import channels

        assert frozenset(channels("X+ X- Y-")) in groups
        assert frozenset(channels("Y+")) in groups
        # topological order respects the transition direction
        assert groups.index(frozenset(channels("X+ X- Y-"))) < groups.index(
            frozenset(channels("Y+"))
        )


class TestPartitionOrderGraphNameCollisions:
    def _pog(self, seq):
        return partition_order_graph(seq, extract_turns(seq))

    def test_user_name_colliding_with_fallback_stays_distinct(self):
        # A partition literally named "P1" next to the *unnamed* partition
        # at index 1 (whose fallback name is also "P1") must not merge
        # into a single node.
        from repro.core import channels
        from repro.core.partition import Partition

        seq = PartitionSequence(
            (
                Partition(tuple(channels("X-")), name="P1"),
                Partition(tuple(channels("X+ Y+ Y-"))),  # fallback name: P1
            )
        )
        pog = self._pog(seq)
        assert pog.number_of_nodes() == 2
        assert set(pog.nodes) == {"P1#0", "P1#1"}
        assert list(pog.edges) == [("P1#0", "P1#1")]

    def test_duplicate_user_names_stay_distinct(self):
        from repro.core import channels
        from repro.core.partition import Partition

        seq = PartitionSequence(
            (
                Partition(tuple(channels("X-")), name="ESC"),
                Partition(tuple(channels("Y-")), name="ESC"),
                Partition(tuple(channels("X+ Y+")), name="ADAPT"),
            )
        )
        pog = self._pog(seq)
        assert set(pog.nodes) == {"ESC#0", "ESC#1", "ADAPT"}
        assert ("ESC#0", "ESC#1") in pog.edges
        assert ("ESC#1", "ADAPT") in pog.edges

    def test_unique_names_are_untouched(self):
        seq = PartitionSequence.parse("X+ X- Y- -> Y+")
        pog = self._pog(seq)
        assert set(pog.nodes) == {"PA", "PB"}

    def test_disambiguation_is_deterministic(self):
        from repro.core import channels
        from repro.core.partition import Partition

        seq = PartitionSequence(
            (
                Partition(tuple(channels("X-")), name="P1"),
                Partition(tuple(channels("X+ Y+ Y-"))),
            )
        )
        first = self._pog(seq)
        second = self._pog(seq)
        assert list(first.nodes) == list(second.nodes)
        assert list(first.edges) == list(second.edges)
