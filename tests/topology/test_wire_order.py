"""``Wire.order_key`` sorts wires exactly as the dataclass order does."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import catalog
from repro.core.channel import Channel
from repro.core.arbitrary import (
    dependency_relation_from_routing,
    dependency_relation_from_turns,
)
from repro.core.extraction import extract_turns
from repro.core.partitioning import partition_vc_budget
from repro.core.torus_designs import dateline_design
from repro.routing.dragonfly import DragonflyRouting
from repro.routing.table import TurnTableRouting
from repro.topology import Dragonfly, FatTree, FaultyMesh, Mesh, Torus
from repro.topology.base import Link
from repro.topology.classes import column_parity, dateline, no_classes, rule_for_design
from repro.topology.wires import Wire, wires_for


def _cases():
    mesh3 = Mesh(3, 3, 2)
    faulty = FaultyMesh(Mesh(4, 4), failed=[((1, 1), (2, 1)), ((0, 2), (0, 3))])
    dragonfly = Dragonfly(3)
    fattree = FatTree(4, 2, 2)
    return {
        "mesh-3d": (mesh3, partition_vc_budget([2, 1, 1]), no_classes),
        "torus-dateline": (Torus(4, 3), dateline_design(2), dateline),
        "odd-even": (Mesh(4, 4), catalog.design("odd-even"), column_parity),
        "dragonfly": (
            dragonfly,
            catalog.design("dragonfly-minimal"),
            rule_for_design("dragonfly-minimal"),
        ),
        "fattree": (
            fattree,
            catalog.design("fattree-updown"),
            rule_for_design("fattree-updown"),
        ),
        "faulty-mesh": (faulty, catalog.design("west-first-vcs"), no_classes),
    }


CASES = _cases()
WIRES = {
    name: wires_for(topology, design.all_channels, rule)
    for name, (topology, design, rule) in CASES.items()
}


def test_every_case_instantiates_wires():
    for name, wires in WIRES.items():
        assert len(wires) > 1, name
    # The dateline and column-parity cases carry spatial class tags.
    assert any(w.channel.cls for w in WIRES["torus-dateline"])
    assert any(w.channel.cls for w in WIRES["odd-even"])


@pytest.mark.parametrize("name", sorted(WIRES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_order_key_sorts_like_dataclass_order(name, data):
    wires = data.draw(st.permutations(WIRES[name]))
    assert sorted(wires, key=Wire.order_key) == sorted(wires)


# Hand-built wires (as relations handed to the existence oracle may hold):
# every field varies independently, so ties on any prefix of fields occur.
_coord = st.tuples(st.integers(0, 2), st.integers(0, 2))
_dim = st.integers(0, 1)
_sign = st.sampled_from((1, -1))
ARBITRARY_WIRES = st.builds(
    Wire,
    st.builds(Link, _coord, _coord, _dim, _sign),
    st.builds(Channel, _dim, _sign, st.integers(1, 2), st.sampled_from(("", "e", "o"))),
)


@given(wires=st.lists(ARBITRARY_WIRES, max_size=40))
@settings(max_examples=200, deadline=None)
def test_order_key_sorts_hand_built_wires_like_dataclass_order(wires):
    assert sorted(wires, key=Wire.order_key) == sorted(wires)


def test_order_key_is_the_flat_field_tuple():
    wire = WIRES["torus-dateline"][0]
    link, ch = wire.link, wire.channel
    assert wire.order_key() == (
        link.src, link.dst, link.dim, link.sign, ch.dim, ch.sign, ch.vc, ch.cls
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_turn_relation_keys_come_out_sorted(name):
    topology, design, rule = CASES[name]
    turnset = extract_turns(design, validate=False)
    relation = dependency_relation_from_turns(topology, turnset, design.all_channels, rule)
    assert list(relation) == sorted(relation)
    for succs in relation.values():
        assert list(succs) == sorted(succs)


@pytest.mark.parametrize("name", ["dragonfly", "odd-even", "mesh-3d"])
def test_routing_relation_keys_come_out_sorted(name):
    topology, design, rule = CASES[name]
    if name == "dragonfly":
        routing = DragonflyRouting(topology)
        rule = routing.rule
    else:
        routing = TurnTableRouting(topology, design, rule)
    relation = dependency_relation_from_routing(topology, routing, rule)
    assert list(relation) == sorted(relation)
    for succs in relation.values():
        assert list(succs) == sorted(succs)
