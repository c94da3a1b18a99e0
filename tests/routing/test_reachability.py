"""Differential tests for the shared reachability kernel.

``repro.routing.base.backward_reachable`` replaced two re-scanning
fixpoints (one in ``TurnTableRouting``, one in ``UpDownRouting``).  The
old loops live on here as the reference: for every destination the
kernel must return exactly the set they computed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import catalog
from repro.core.torus_designs import dateline_design
from repro.fuzz.generator import DesignGenerator
from repro.routing import TurnTableRouting
from repro.routing.base import backward_reachable
from repro.routing.updown import UpDownRouting
from repro.topology import FatTree, FaultyMesh, Mesh, Torus
from repro.topology.classes import dateline, rule_for_design

#: Catalog designs that are not mesh designs (native topologies only).
NON_MESH = {"dragonfly-minimal", "dragonfly-valiant", "fattree-updown"}


def _dims(name: str) -> int:
    return len({ch.dim for ch in catalog.design(name).all_channels})


MESH_2D = sorted(n for n in catalog.NAMED_DESIGNS if n not in NON_MESH and _dims(n) == 2)
MESH_3D = sorted(n for n in catalog.NAMED_DESIGNS if n not in NON_MESH and _dims(n) == 3)


def naive_table_reachable(routing: TurnTableRouting, dst):
    """``TurnTableRouting``'s re-scanning fixpoint as it stood before the kernel."""
    classes = routing.channel_classes
    reachable = {(dst, c) for c in classes}
    states = [(node, c) for node in routing.topology.nodes for c in classes]
    succ = {}
    for node in routing.topology.nodes:
        if node == dst:
            continue
        if routing._fallback == "escape":
            dirs = sorted({(l.dim, l.sign) for l in routing.topology.out_links(node)})
        else:
            dirs = routing._productive(node, dst)
        moves = routing._outputs_matching(node, dirs)
        for c in classes:
            succ[(node, c)] = [
                (nxt, ch) for nxt, ch in moves if routing.transition_legal(c, ch)
            ]
    changed = True
    while changed:
        changed = False
        for state in states:
            if state in reachable:
                continue
            for nxt_state in succ.get(state, ()):
                if nxt_state in reachable:
                    reachable.add(state)
                    changed = True
                    break
    return frozenset(reachable)


def naive_updown_reachable(routing: UpDownRouting, dst):
    """``UpDownRouting._reachable``'s re-scanning fixpoint before the kernel."""
    classes = routing.channel_classes
    reachable = {(dst, c) for c in classes}
    moves = {node: routing._all_moves(node) for node in routing.topology.nodes}
    changed = True
    while changed:
        changed = False
        for node in routing.topology.nodes:
            if node == dst:
                continue
            for c in classes:
                if (node, c) in reachable:
                    continue
                for nxt, ch in moves[node]:
                    if routing._legal(c, ch) and (nxt, ch) in reachable:
                        reachable.add((node, c))
                        changed = True
                        break
    return frozenset(reachable)


def assert_table_matches(routing: TurnTableRouting) -> None:
    for dst in routing.topology.nodes:
        assert routing._reachable_states(dst) == naive_table_reachable(routing, dst), dst


def assert_updown_matches(routing: UpDownRouting) -> None:
    for dst in routing.topology.nodes:
        assert routing._reachable(dst) == naive_updown_reachable(routing, dst), dst


class TestKernel:
    def test_seeds_are_always_reached(self):
        assert backward_reachable(["a"], [], lambda s: ()) == frozenset({"a"})

    def test_chain_is_followed_to_its_start(self):
        succ = {1: [2], 2: [3], 3: [4], 5: [1]}
        reached = backward_reachable([4], succ, lambda s: succ[s])
        assert reached == frozenset({1, 2, 3, 4, 5})

    def test_states_that_cannot_reach_a_seed_are_left_out(self):
        succ = {1: [2], 2: [1], 3: [4]}
        assert backward_reachable([4], succ, lambda s: succ[s]) == frozenset({3, 4})


@pytest.mark.parametrize("radix", [4, 8])
@pytest.mark.parametrize("name", MESH_2D)
def test_2d_catalog_designs(name, radix):
    routing = TurnTableRouting(
        Mesh(radix, radix), catalog.design(name), rule_for_design(name)
    )
    assert_table_matches(routing)


@pytest.mark.parametrize("name", MESH_3D)
def test_3d_catalog_designs(name):
    routing = TurnTableRouting(
        Mesh(4, 4, 4), catalog.design(name), rule_for_design(name)
    )
    assert_table_matches(routing)


def test_odd_even_under_column_parity():
    from repro.topology import column_parity

    assert "odd-even" in MESH_2D
    routing = TurnTableRouting(Mesh(5, 5), catalog.odd_even_partitions(), column_parity)
    assert_table_matches(routing)


def test_torus_dateline_design():
    assert_table_matches(TurnTableRouting(Torus(4, 4), dateline_design(2), dateline))


FAULTS = [((1, 1), (2, 1)), ((2, 2), (2, 3)), ((0, 3), (1, 3))]


@pytest.mark.parametrize(
    "kwargs", [{"directions": "progressive"}, {"fallback": "escape"}], ids=str
)
def test_faulty_mesh(kwargs):
    mesh = FaultyMesh(Mesh(5, 5), failed=FAULTS)
    assert_table_matches(TurnTableRouting(mesh, catalog.p5_west_first_vcs(), **kwargs))


@given(seed=st.integers(0, 10_000), trial=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_fuzz_mutant_turn_sets(seed, trial):
    generator = DesignGenerator(
        seed, mutant_fraction=1.0, families=("mesh", "torus", "irregular")
    )
    design = generator.design_for(trial)
    seq, turnset = design.compile()
    kwargs = {}
    if design.topology_kind == "irregular":
        kwargs = {"directions": "progressive", "fallback": "escape"}
    routing = TurnTableRouting(
        design.topology(), seq, design.class_rule(),
        turnset=turnset, validate=False, **kwargs,
    )
    assert_table_matches(routing)


def test_updown_on_faulty_mesh():
    assert_updown_matches(UpDownRouting(FaultyMesh(Mesh(4, 4), failed=FAULTS)))


def test_updown_on_fat_tree():
    tree = FatTree(4, 2, 2)
    assert_updown_matches(UpDownRouting(tree, levels={n: 2 - n[0] for n in tree.nodes}))


ROUTING = Path(__file__).resolve().parents[2] / "src" / "repro" / "routing"


def _is_flag_fixpoint(node: ast.AST) -> bool:
    """``while flag:`` whose body sets ``flag = True``: a re-scanning fixpoint."""
    if not (isinstance(node, ast.While) and isinstance(node.test, ast.Name)):
        return False
    flag = node.test.id
    return any(
        isinstance(inner, ast.Assign)
        and isinstance(inner.value, ast.Constant)
        and inner.value.value is True
        and any(isinstance(t, ast.Name) and t.id == flag for t in inner.targets)
        for stmt in node.body
        for inner in ast.walk(stmt)
    )


def test_one_reachability_kernel_in_routing():
    offenders = []
    for path in sorted(ROUTING.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _is_flag_fixpoint(node):
                offenders.append(f"{path.relative_to(ROUTING).as_posix()}:{node.lineno}")
    assert offenders == [], f"use repro.routing.base.backward_reachable: {offenders}"
