"""k-ary fat-tree topology (the paper's declared future work, §3.1).

A two-level fat-tree (leaf/spine Clos): ``leaves`` leaf switches, each
hosting ``hosts_per_leaf`` terminals, fully connected to ``spines`` spine
switches.  Terminals are the traffic endpoints; switches only forward.

Coordinates (single "level" dimension keeps the Link dim/sign labelling
meaningful — up moves are ``(0, +1)``, down moves ``(0, -1)``):

* terminal  ``(0, leaf_index * hosts_per_leaf + slot)``
* leaf      ``(1, leaf_index)``
* spine     ``(2, spine_index)``

Up*/Down* over this topology — all up hops, then all down hops — is the
canonical deadlock-free routing, and in EbDa terms it is two consecutively
ordered link-class partitions (``u`` then ``d``), verified acyclic by the
concrete CDG like every other design in this library.
"""

from __future__ import annotations

from functools import cached_property

from repro.errors import TopologyError
from repro.topology.base import Coord, Link, Topology


class FatTree(Topology):
    """Two-level k-ary fat-tree with explicit terminals.

    >>> ft = FatTree(leaves=4, spines=2, hosts_per_leaf=2)
    >>> len(ft.endpoints), len(ft.nodes)
    (8, 14)
    """

    def __init__(self, leaves: int = 4, spines: int = 2, hosts_per_leaf: int = 2) -> None:
        if leaves < 2 or spines < 1 or hosts_per_leaf < 1:
            raise TopologyError("fat-tree needs >=2 leaves, >=1 spine, >=1 host/leaf")
        self._leaves = leaves
        self._spines = spines
        self._hosts = hosts_per_leaf

    def __repr__(self) -> str:
        return f"FatTree(leaves={self._leaves}, spines={self._spines}, hosts_per_leaf={self._hosts})"

    @property
    def n_dims(self) -> int:
        return 1

    @cached_property
    def nodes(self) -> tuple[Coord, ...]:
        terminals = [(0, i) for i in range(self._leaves * self._hosts)]
        leaf_switches = [(1, i) for i in range(self._leaves)]
        spines = [(2, i) for i in range(self._spines)]
        return tuple(terminals + leaf_switches + spines)

    @cached_property
    def endpoints(self) -> tuple[Coord, ...]:
        """Terminals — the only nodes that source/sink traffic."""
        return tuple(n for n in self.nodes if n[0] == 0)

    def leaf_of(self, terminal: Coord) -> Coord:
        """The leaf switch a terminal hangs off."""
        if terminal[0] != 0:
            raise TopologyError(f"{terminal} is not a terminal")
        return (1, terminal[1] // self._hosts)

    @cached_property
    def links(self) -> tuple[Link, ...]:
        out: list[Link] = []
        for t in self.endpoints:
            leaf = self.leaf_of(t)
            out.append(Link(t, leaf, 0, +1))      # up: terminal -> leaf
            out.append(Link(leaf, t, 0, -1))      # down: leaf -> terminal
        for li in range(self._leaves):
            for si in range(self._spines):
                leaf, spine = (1, li), (2, si)
                out.append(Link(leaf, spine, 0, +1))
                out.append(Link(spine, leaf, 0, -1))
        return tuple(out)

    def minimal_directions(self, cur: Coord, dst: Coord) -> tuple[tuple[int, int], ...]:
        """Directions (up/down) of links that shorten the distance."""
        return tuple(sorted(set(self.nearer_directions(cur, dst))))
