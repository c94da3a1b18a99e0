"""The linear cycle-search kernel: networkx's witness, each list opened once."""

import ast
from collections.abc import Mapping
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.arbitrary
from repro.cdg import build_turn_cdg, verdict_for
from repro.cdg.cycles import first_cycle
from repro.core import PartitionSequence, extract_turns
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
    assert first_cycle(graph._succ) == nx_witness(graph)


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
    assert first_cycle(graph._succ) == expected == nx_witness(graph)


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
    counting = CountingSucc(graph._succ)
    assert first_cycle(counting) == nx_witness(graph)
    assert max(counting.opened.values()) == 1


@pytest.mark.parametrize("radix", [8, 16])
def test_all_turns_control_same_witness_as_networkx(radix):
    graph = build_turn_cdg(Mesh(radix, radix), all_turns(), ALL_TURNS.all_channels)
    verdict = verdict_for(graph)
    assert not verdict.acyclic
    assert verdict.cycle == nx_witness(graph)


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
