"""Network topologies: mesh, torus, partially connected 3D, irregular."""

from repro.topology.base import Coord, Link, Topology, dim_sign, grid_nodes
from repro.topology.classes import (
    ClassRule,
    NAMED_RULES,
    column_parity,
    local_global,
    no_classes,
    parity_rule,
    resolve_rule,
    row_parity,
    rule_for_design,
    up_down_signs,
)
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.irregular import FaultyMesh, GraphTopology
from repro.topology.mesh import Mesh
from repro.topology.partial3d import PartiallyConnected3D
from repro.topology.torus import Torus
from repro.topology.wires import Wire, check_full_instantiation, wires_by_link, wires_for

__all__ = [
    "Coord",
    "Link",
    "Topology",
    "dim_sign",
    "grid_nodes",
    "ClassRule",
    "NAMED_RULES",
    "column_parity",
    "local_global",
    "no_classes",
    "parity_rule",
    "resolve_rule",
    "row_parity",
    "rule_for_design",
    "up_down_signs",
    "Dragonfly",
    "FatTree",
    "FaultyMesh",
    "GraphTopology",
    "Mesh",
    "PartiallyConnected3D",
    "Torus",
    "Wire",
    "check_full_instantiation",
    "wires_by_link",
    "wires_for",
]
