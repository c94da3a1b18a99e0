"""Dragonfly topology (the paper's declared future work, §3.1).

A canonical small dragonfly: ``groups`` groups of ``a = groups - 1``
routers each; routers within a group form a complete local graph; every
pair of groups is connected by exactly one global link, and every router
terminates exactly one global link.  Routers are the traffic endpoints.

Link labelling: local links carry ``dim=0``, global links ``dim=1`` (both
``sign=+1`` — dragonfly links have no geometric direction; the EbDa
structure lives in the *class* ordering ``L1 -> G -> L2``, see
:class:`repro.routing.dragonfly.DragonflyRouting`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from repro.errors import TopologyError
from repro.topology.base import Coord, Link, Topology

#: Link dimension labels.
LOCAL_DIM = 0
GLOBAL_DIM = 1


class Dragonfly(Topology):
    """A fully-subscribed small dragonfly: ``a = groups - 1``.

    Node coordinates are ``(group, router)``.

    >>> d = Dragonfly(groups=4)
    >>> len(d.nodes), sum(1 for l in d.links if l.dim == GLOBAL_DIM)
    (12, 12)
    """

    def __init__(self, groups: int = 4) -> None:
        if groups < 3:
            raise TopologyError("a dragonfly needs at least 3 groups")
        self._groups = groups
        self._per_group = groups - 1

    def __repr__(self) -> str:
        return f"Dragonfly(groups={self._groups})"

    @property
    def groups(self) -> int:
        return self._groups

    @property
    def routers_per_group(self) -> int:
        return self._per_group

    @property
    def n_dims(self) -> int:
        return 2  # (local, global) link dimensions

    @cached_property
    def nodes(self) -> tuple[Coord, ...]:
        return tuple(
            (g, r) for g in range(self._groups) for r in range(self._per_group)
        )

    @cached_property
    def global_peer(self) -> dict[Coord, Coord]:
        """The far end of each router's single global link."""
        # Assign the k-th pair each group sees to its k-th router.
        next_slot = [0] * self._groups
        peer: dict[Coord, Coord] = {}
        for m, n in combinations(range(self._groups), 2):
            a = (m, next_slot[m])
            b = (n, next_slot[n])
            next_slot[m] += 1
            next_slot[n] += 1
            peer[a] = b
            peer[b] = a
        return peer

    @cached_property
    def links(self) -> tuple[Link, ...]:
        out: list[Link] = []
        for g in range(self._groups):
            for r1 in range(self._per_group):
                for r2 in range(self._per_group):
                    if r1 != r2:
                        out.append(Link((g, r1), (g, r2), LOCAL_DIM, +1))
        for a, b in self.global_peer.items():
            out.append(Link(a, b, GLOBAL_DIM, +1))
        return tuple(out)

    def gateway(self, src_group: int, dst_group: int) -> Coord:
        """The router in ``src_group`` owning the global link to ``dst_group``."""
        if src_group == dst_group:
            raise TopologyError("no gateway within a group")
        for r in range(self._per_group):
            node = (src_group, r)
            if self.global_peer[node][0] == dst_group:
                return node
        raise TopologyError(
            f"no global link from group {src_group} to {dst_group}"
        )  # pragma: no cover - construction guarantees one

    def distance(self, src: Coord, dst: Coord) -> int:
        self.validate_node(src)
        self.validate_node(dst)
        if src == dst:
            return 0
        if src[0] == dst[0]:
            return 1  # complete local graph
        gw = self.gateway(src[0], dst[0])
        far = self.global_peer[gw]
        hops = 1  # the global hop
        if src != gw:
            hops += 1
        if far != dst:
            hops += 1
        return hops

    def minimal_directions(self, cur: Coord, dst: Coord) -> tuple[tuple[int, int], ...]:
        """Coarse oracle (link-dimension granularity); routing uses
        :class:`~repro.routing.dragonfly.DragonflyRouting` for per-link
        decisions."""
        return tuple(sorted(set(self.nearer_directions(cur, dst))))
