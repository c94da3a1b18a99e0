"""The graph kernels checked against networkx, the independent reference:
the linear cycle search (networkx's witness, each list opened once), the
SCCs, the bounded cycle enumeration and the successor-map graph type."""

import ast
from collections.abc import Mapping
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.arbitrary
from repro.cdg import build_routing_cdg, build_turn_cdg, recover_partitions, verdict_for
from repro.cdg.cycles import first_cycle, simple_cycles, strongly_connected_components
from repro.cdg.graph import DependencyGraph
from repro.core import PartitionSequence, catalog, channels, extract_turns, turnset_from_strings
from repro.routing import UnrestrictedAdaptive
from repro.topology import Mesh


def nx_witness(graph: nx.DiGraph):
    """The reference witness: the tails of ``nx.find_cycle``'s edges."""
    try:
        edges = nx.find_cycle(graph, orientation="original")
    except nx.NetworkXNoCycle:
        return None
    return tuple(edge[0] for edge in edges)


@st.composite
def digraphs(draw):
    """Random digraphs with self-loops, isolated nodes and several components.

    Nodes are added in a drawn order (start nodes are tried in insertion
    order), and edges in a drawn order (successors in adjacency order).
    """
    n = draw(st.integers(min_value=0, max_value=12))
    order = draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True)) if n else []
    if n and draw(st.booleans()):
        # Mostly-forward edges: deep acyclic stretches before any cycle.
        edges = [(u, v) for u, v in edges if u < v or u == v == order[0]]
    graph = nx.DiGraph()
    graph.add_nodes_from(order)
    graph.add_edges_from(edges)
    return graph


@settings(max_examples=400, deadline=None)
@given(digraphs())
def test_matches_networkx_find_cycle(graph):
    assert first_cycle(graph) == nx_witness(graph)


@pytest.mark.parametrize(
    "edges, nodes, expected",
    [
        ([], [], None),
        ([], ["a", "b"], None),
        ([("a", "a")], [], ("a",)),
        ([("a", "b"), ("b", "a")], [], ("a", "b")),
        # The rotation starts at the node the closing back edge points to.
        ([("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")], [], ("b", "c", "d")),
        # A finished subtree reached again holds no back edge.
        ([("a", "b"), ("a", "c"), ("c", "b"), ("b", "d")], [], None),
        # Cycle in the second component only.
        ([("a", "b"), ("c", "d"), ("d", "c")], [], ("c", "d")),
    ],
)
def test_small_graphs(edges, nodes, expected):
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    assert first_cycle(graph) == expected == nx_witness(graph)


def test_plain_mapping_and_graph_adj():
    succ = {1: [2, 3], 2: [3], 3: [1]}
    assert first_cycle(succ) == (1, 2, 3)
    assert first_cycle(nx.DiGraph(succ).adj) == (1, 2, 3)


ALL_TURNS = PartitionSequence.parse("X+ X- Y+ Y-")


def all_turns():
    return extract_turns(ALL_TURNS, validate=False)


class CountingSucc(Mapping):
    """A successor mapping that counts how often each list is iterated."""

    def __init__(self, succ):
        self.succ = succ
        self.opened: dict = {}

    def __getitem__(self, node):
        outer = self

        class Counted:
            def __iter__(self):
                outer.opened[node] = outer.opened.get(node, 0) + 1
                return iter(outer.succ[node])

        return Counted()

    def __iter__(self):
        return iter(self.succ)

    def __len__(self):
        return len(self.succ)


def layered_dag(layers: int, width: int) -> dict:
    """Every node of a layer depends on every node of the next: many paths,
    each node reachable from every earlier node — the shape on which a
    search that restarts per start node goes quadratic."""
    succ: dict = {}
    for layer in range(layers):
        nxt = [(layer + 1, j) for j in range(width)] if layer + 1 < layers else []
        for i in range(width):
            succ[(layer, i)] = list(nxt)
    # Start nodes in reverse topological order: each start's whole reach
    # is already finished.
    return dict(reversed(list(succ.items())))


def test_each_adjacency_list_opened_at_most_once():
    counting = CountingSucc(layered_dag(layers=12, width=6))
    assert first_cycle(counting) is None
    assert set(counting.opened) == set(counting.succ)
    assert max(counting.opened.values()) == 1


def test_each_list_opened_at_most_once_on_a_cyclic_catalog_control():
    graph = build_turn_cdg(Mesh(6, 6), all_turns(), ALL_TURNS.all_channels)
    counting = CountingSucc(graph)
    assert first_cycle(counting) == nx_witness(nx.DiGraph(graph))
    assert max(counting.opened.values()) == 1


@pytest.mark.parametrize("radix", [8, 16])
def test_all_turns_control_same_witness_as_networkx(radix):
    graph = build_turn_cdg(Mesh(radix, radix), all_turns(), ALL_TURNS.all_channels)
    verdict = verdict_for(graph)
    assert not verdict.acyclic
    assert verdict.cycle == nx_witness(nx.DiGraph(graph))


def rotation_canonical(cycle) -> tuple:
    """A cycle rotated to start at its smallest node."""
    cycle = tuple(cycle)
    start = cycle.index(min(cycle))
    return cycle[start:] + cycle[:start]


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_scc_partition_matches_networkx(graph):
    ours = [frozenset(c) for c in strongly_connected_components(graph)]
    assert len(ours) == len(set(ours))
    assert set(ours) == {frozenset(c) for c in nx.strongly_connected_components(graph)}


@settings(max_examples=300, deadline=None)
@given(digraphs(), st.sampled_from([None, 1, 2, 3, 6]))
def test_simple_cycles_match_networkx(graph, length_bound):
    ours = [rotation_canonical(c) for c in simple_cycles(graph, length_bound)]
    assert len(ours) == len(set(ours))
    reference = nx.simple_cycles(graph, length_bound=length_bound)
    assert set(ours) == {rotation_canonical(c) for c in reference}


def test_simple_cycles_cover_self_loops_and_two_cycles():
    succ = {"a": ["a", "b"], "b": ["a", "c"], "c": ["b", "c"]}
    assert next(simple_cycles(succ)) == ("a",)
    assert {rotation_canonical(c) for c in simple_cycles(succ, 2)} == {
        ("a",), ("c",), ("a", "b"), ("b", "c"),
    }


WEST_FIRST = catalog.design("west-first")
CLASSES = channels("X+ X- Y+ Y- Z+ Z-")
TURNS = [f"{a}->{b}" for a in CLASSES for b in CLASSES if a != b]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(TURNS), min_size=1, max_size=14, unique=True))
def test_recover_partitions_is_a_topological_order_of_the_sccs(specs):
    turnset = turnset_from_strings(specs)
    groups = recover_partitions(turnset)
    reference = nx.DiGraph([(t.src, t.dst) for t in turnset.turns])
    assert set(groups) == {frozenset(c) for c in nx.strongly_connected_components(reference)}
    position = {ch: i for i, group in enumerate(groups) for ch in group}
    assert all(position[t.src] <= position[t.dst] for t in turnset.turns)


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_add_edge_keeps_networkx_node_and_edge_order(graph):
    ours = DependencyGraph()
    for node in graph:
        ours.setdefault(node, [])
    for u, v in list(graph.edges) * 2:  # a repeated edge is not added twice
        ours.add_edge(u, v)
    assert list(ours.nodes) == list(graph.nodes)
    assert ours.edges == list(graph.edges)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_turn_cdg(Mesh(4, 4), all_turns(), ALL_TURNS.all_channels),
        lambda: build_turn_cdg(
            Mesh(4, 4), extract_turns(WEST_FIRST), WEST_FIRST.all_channels
        ),
        lambda: build_routing_cdg(Mesh(4, 4), UnrestrictedAdaptive(Mesh(4, 4))),
    ],
    ids=["all-turns", "west-first", "routed"],
)
def test_dependency_graph_round_trips_through_networkx(build):
    graph = build()
    reference = nx.DiGraph(graph)
    assert list(reference.nodes) == list(graph.nodes)
    assert list(reference.edges) == graph.edges
    assert graph.number_of_nodes() == reference.number_of_nodes()
    assert graph.number_of_edges() == reference.number_of_edges() > 0
    a, b = graph.edges[0]
    assert graph.has_edge(a, b) and (a, b) in graph.edges
    assert not graph.has_edge(b, "absent") and not graph.has_edge("absent", a)


SRC = Path(repro.core.arbitrary.__file__).parents[1]


def module_source(module: str) -> Path | None:
    """The file defining a ``repro`` module, or None for an imported name."""
    path = SRC.joinpath(*module.split(".")[1:])
    if path.is_dir():
        return path / "__init__.py"
    path = path.with_suffix(".py")
    return path if path.exists() else None


def imported_modules(source: Path) -> set[str]:
    """Every module a source file imports, and every ``module.name`` it
    takes from one (which may itself be a submodule)."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
    return out


def test_fifth_oracle_shares_no_graph_code():
    """``core.arbitrary`` decides acyclicity by sink-peeling with no code in
    common with the CDG path: neither it nor any repro module it imports,
    followed through their sources, imports ``repro.cdg`` or networkx."""
    seen: set[str] = set()
    todo = ["repro.core.arbitrary"]
    while todo:
        module = todo.pop()
        source = module_source(module)
        if module in seen or source is None:
            continue
        seen.add(module)
        imports = imported_modules(source)
        forbidden = sorted(
            m for m in imports
            if m.split(".")[0] == "networkx" or m == "repro.cdg" or m.startswith("repro.cdg.")
        )
        assert forbidden == [], f"{module} (reached from repro.core.arbitrary) imports {forbidden}"
        todo.extend(m for m in imports if m.startswith("repro."))
    assert "repro.topology.wires" in seen
