"""One hop-distance search for every topology.

``Topology.hop_distances`` is the library's only breadth-first search;
``distance`` and the ``nearer_directions`` oracle read it.  These tests
hold it to a reference all-pairs BFS kept here, hold every closed-form
``distance`` override to it, and hold the direction oracles built on it
to the per-topology implementations they replaced, order included.
"""

import ast
from collections import deque
from pathlib import Path

import pytest

from repro.errors import TopologyError
from repro.topology import (
    Dragonfly,
    FatTree,
    FaultyMesh,
    GraphTopology,
    Mesh,
    PartiallyConnected3D,
    Topology,
    Torus,
)

FAULTY_LINKS = FaultyMesh(Mesh(4, 4), failed=[((1, 1), (2, 1)), ((1, 2), (1, 1)), ((0, 3), (1, 3))])
FAULTY_ROUTER = FaultyMesh(Mesh(4, 3), failed=[((0, 0), (1, 0))], failed_nodes=[(2, 1)])
#: Node (3,) has no out-link and (4,) no in-link, so some pairs have no path.
GRAPH = GraphTopology(
    [((0,), (1,)), ((1,), (2,)), ((2,), (0,)), ((1,), (3,)), ((4,), (0,)), ((0,), (2,))]
)

TOPOLOGIES = {
    "mesh": Mesh(3, 4),
    "mesh3d": Mesh(2, 3, 2),
    "torus": Torus(3, 4),
    "partial3d": PartiallyConnected3D(3, 3, 2),
    "dragonfly": Dragonfly(groups=4),
    "fattree": FatTree(leaves=3, spines=2, hosts_per_leaf=2),
    "faulty-links": FAULTY_LINKS,
    "faulty-router": FAULTY_ROUTER,
    "faulty-partial3d": FaultyMesh(PartiallyConnected3D(3, 3, 2), failed=[((0, 0, 0), (1, 0, 0))]),
    "graph": GRAPH,
}
CLOSED_FORMS = ["mesh", "mesh3d", "torus", "partial3d", "dragonfly"]

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def reference_bfs(topology):
    """All-pairs hop counts: the per-topology search the shared one replaced."""
    adj = {n: [] for n in topology.nodes}
    for link in topology.links:
        adj[link.src].append(link.dst)
    out = {}
    for start in topology.nodes:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        out[start] = dist
    return out


def pairs(topology):
    return [(a, b) for a in topology.nodes for b in topology.nodes]


# -- the replaced direction oracles, kept as references ------------------------


def ref_sorted_nearer(topology, dist, cur, dst):
    """FatTree and Dragonfly: the sorted set of shortening directions."""
    if cur == dst:
        return ()
    here = dist[cur][dst]
    dims = set()
    for link in topology.out_links(cur):
        if dist[link.dst][dst] < here:
            dims.add((link.dim, link.sign))
    return tuple(sorted(dims))


def ref_dragonfly(topology, cur, dst):
    """Dragonfly's oracle read its closed-form distance."""
    if cur == dst:
        return ()
    here = topology.distance(cur, dst)
    dims = set()
    for link in topology.out_links(cur):
        if topology.distance(link.dst, dst) < here:
            dims.add((link.dim, link.sign))
    return tuple(sorted(dims))


def ref_progressive(topology, dist, cur, dst):
    """FaultyMesh: shortening directions in out-link order."""
    here = dist[cur][dst]
    return tuple(
        (link.dim, link.sign)
        for link in topology.out_links(cur)
        if dist[link.dst][dst] < here
    )


def ref_graph(topology, dist, cur, dst):
    """GraphTopology: one label when any out-link shortens a path."""
    if cur == dst:
        return ()
    here = dist[cur].get(dst)
    if here is None:
        return ()
    for link in topology.out_links(cur):
        if dist[link.dst].get(dst, here) < here:
            return ((0, +1),)
    return ()


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_distance_matches_reference_bfs(name):
    topology = TOPOLOGIES[name]
    ref = reference_bfs(topology)
    for a, b in pairs(topology):
        if b in ref[a]:
            assert topology.distance(a, b) == ref[a][b], (a, b)
        else:
            with pytest.raises(TopologyError, match="no directed path"):
                topology.distance(a, b)
        assert topology.hop_distances(a) == ref[a]


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_form_equals_base_bfs(name):
    topology = TOPOLOGIES[name]
    assert type(topology).distance is not Topology.distance
    for a, b in pairs(topology):
        assert topology.distance(a, b) == Topology.distance(topology, a, b), (a, b)


def test_closed_forms_cover_every_override():
    overriding = {
        name for name, t in TOPOLOGIES.items() if type(t).distance is not Topology.distance
    }
    assert overriding == set(CLOSED_FORMS)


def test_fattree_oracle_matches_reference():
    topology = TOPOLOGIES["fattree"]
    ref = reference_bfs(topology)
    for a, b in pairs(topology):
        assert topology.minimal_directions(a, b) == ref_sorted_nearer(topology, ref, a, b)


def test_dragonfly_oracle_matches_reference():
    topology = TOPOLOGIES["dragonfly"]
    ref = reference_bfs(topology)
    for a, b in pairs(topology):
        expected = ref_dragonfly(topology, a, b)
        assert topology.minimal_directions(a, b) == expected
        assert ref_sorted_nearer(topology, ref, a, b) == expected


@pytest.mark.parametrize("name", ["faulty-links", "faulty-router", "faulty-partial3d"])
def test_progressive_oracle_matches_reference_in_order(name):
    topology = TOPOLOGIES[name]
    ref = reference_bfs(topology)
    for a, b in pairs(topology):
        assert topology.progressive_directions(a, b) == ref_progressive(topology, ref, a, b)


def test_graph_oracle_matches_reference():
    ref = reference_bfs(GRAPH)
    for a, b in pairs(GRAPH):
        expected = ref_graph(GRAPH, ref, a, b)
        assert GRAPH.minimal_directions(a, b) == expected
        assert GRAPH.progressive_directions(a, b) == expected


def test_unreachable_graph_pair_raises():
    with pytest.raises(TopologyError, match="no directed path"):
        GRAPH.distance((3,), (0,))
    with pytest.raises(TopologyError, match="no directed path"):
        GRAPH.distance((0,), (4,))
    assert GRAPH.minimal_directions((3,), (0,)) == ()
    assert GRAPH.nearer_directions((0,), (4,)) == ()


def test_unknown_nodes_raise():
    mesh = Mesh(3, 3)
    for call in (mesh.distance, mesh.nearer_directions, Topology.distance.__get__(mesh)):
        with pytest.raises(TopologyError, match="not in the topology"):
            call((0, 0), (9, 9))
        with pytest.raises(TopologyError, match="not in the topology"):
            call((9, 9), (0, 0))


def test_search_runs_once_per_source():
    topology = FaultyMesh(Mesh(3, 3), failed=[((0, 0), (1, 0))])
    first = topology.hop_distances((2, 2))
    assert topology.hop_distances((2, 2)) is first


# -- structure: the search stays single ----------------------------------------


def _guarded_trees():
    """Every module under topology/ and routing/ except the search's home."""
    for layer in ("topology", "routing"):
        for path in sorted((SRC / layer).rglob("*.py")):
            relpath = path.relative_to(SRC)
            if relpath != Path("topology/base.py"):
                yield relpath, ast.parse(path.read_text())


def _imports_deque(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "collections":
            if any(alias.name == "deque" for alias in node.names):
                return True
        if isinstance(node, ast.Import) and any(a.name == "collections" for a in node.names):
            return True
    return False


def _pops_front(loop):
    """A queue-driven loop: it pops the front of a queue (``popleft``/``pop(0)``)."""
    for node in ast.walk(loop):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "popleft":
                return True
            if node.func.attr == "pop" and [ast.unparse(a) for a in node.args] == ["0"]:
                return True
    return False


def _labels_hops(tree):
    """``d[x] = d[y] + 1``: a table filled with one-more-hop counts."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.Add)
            and isinstance(node.value.left, ast.Subscript)
            and ast.unparse(node.targets[0].value) == ast.unparse(node.value.left.value)
        ):
            return True
    return False


class TestStructure:
    def test_search_lives_in_base(self):
        tree = ast.parse((SRC / "topology" / "base.py").read_text())
        assert _imports_deque(tree)
        assert any(_pops_front(n) for n in ast.walk(tree) if isinstance(n, ast.While))

    def test_no_other_module_imports_deque(self):
        assert [path for path, tree in _guarded_trees() if _imports_deque(tree)] == []

    def test_no_other_module_runs_a_bfs_loop(self):
        loops = [
            (str(path), loop.lineno)
            for path, tree in _guarded_trees()
            for loop in ast.walk(tree)
            if isinstance(loop, (ast.While, ast.For)) and _pops_front(loop)
        ]
        assert loops == []

    def test_no_other_module_labels_hop_counts(self):
        assert [str(path) for path, tree in _guarded_trees() if _labels_hops(tree)] == []
