"""Irregular topologies: a mesh with failed links (Theorem validity claim).

The paper asserts its theorems hold on irregular networks.  We model
irregularity as a 2D/3D mesh with a set of failed bidirectional links
(and, for router failures, a set of failed nodes).  Minimal-direction
oracles are no longer exact (a productive direction may be missing), so
:meth:`FaultyMesh.progressive_directions` offers the surviving links that
shorten the path instead, for fault-tolerant EbDa designs that exploit
Theorem 2's U-turns for rerouting.  Its distances, like those of
:class:`GraphTopology` and Up*/Down* levels, come from the one hop
search of :meth:`Topology.hop_distances <repro.topology.base.Topology.hop_distances>`.

The runtime fault-injection path (:mod:`repro.sim.faults`) degrades a
topology incrementally with :meth:`FaultyMesh.without_link` /
:meth:`FaultyMesh.without_router` as failures arrive mid-simulation.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from repro.errors import TopologyError
from repro.topology.base import Coord, Link, Topology
from repro.topology.mesh import Mesh  # noqa: F401  (doctest namespace)


class FaultyMesh(Topology):
    """A topology with a set of failed (removed) bidirectional links.

    Despite the historical name, any link-labelled :class:`Topology` can
    serve as the base (mesh, partially connected 3D, ...); the wrapper
    only consults the base's node/link sets and minimal-direction oracle.

    Duplicate failed-link entries (including the same link listed in both
    directions) collapse to one failure; self-loop entries are rejected.

    >>> t = FaultyMesh(Mesh(3, 3), failed=[((0, 0), (1, 0))])
    >>> t.has_link((0, 0), (1, 0)) or t.has_link((1, 0), (0, 0))
    False
    >>> t2 = FaultyMesh(Mesh(3, 3), failed=[((0, 0), (1, 0)), ((1, 0), (0, 0))])
    >>> t2.failed_links
    (((0, 0), (1, 0)),)
    """

    def __init__(
        self,
        base: Topology,
        failed: Iterable[tuple[Coord, Coord]],
        failed_nodes: Iterable[Coord] = (),
    ) -> None:
        self._base = base
        normalized: set[frozenset[Coord]] = set()
        for u, v in failed:
            if u == v:
                raise TopologyError(f"self-loop failed-link entry {u} -> {v}")
            base.link(u, v)  # raises TopologyError when the link is absent
            normalized.add(frozenset((u, v)))
        self._failed = normalized
        dead_nodes: set[Coord] = set()
        for node in failed_nodes:
            base.validate_node(node)
            dead_nodes.add(node)
        self._failed_nodes = dead_nodes
        nodes = self.nodes
        if not nodes or len(self.hop_distances(nodes[0])) != len(nodes):
            raise TopologyError("failures disconnect the network")

    def __repr__(self) -> str:
        pairs = sorted(tuple(sorted(f)) for f in self._failed)
        extra = f", failed_nodes={sorted(self._failed_nodes)}" if self._failed_nodes else ""
        return f"FaultyMesh({self._base!r}, failed={pairs}{extra})"

    @property
    def base(self) -> Topology:
        """The underlying healthy topology."""
        return self._base

    @property
    def failed_links(self) -> tuple[tuple[Coord, Coord], ...]:
        """The failed links as sorted endpoint pairs."""
        return tuple(sorted(tuple(sorted(f)) for f in self._failed))

    @property
    def failed_nodes(self) -> tuple[Coord, ...]:
        """Failed routers (removed together with all their links)."""
        return tuple(sorted(self._failed_nodes))

    def without_link(self, u: Coord, v: Coord) -> "FaultyMesh":
        """A copy of this topology with one more failed link.

        This is the incremental-degradation step the runtime rerouting
        path uses when a link fails mid-simulation.  Raises
        :class:`~repro.errors.TopologyError` when the extra failure would
        disconnect the network (or the link does not exist / is a
        self-loop).

        >>> t = FaultyMesh(Mesh(3, 3), failed=[])
        >>> t2 = t.without_link((0, 0), (1, 0))
        >>> t2.failed_links
        (((0, 0), (1, 0)),)
        >>> t2.has_link((1, 0), (0, 0))
        False
        >>> len(t.links) - len(t2.links)
        2
        """
        return FaultyMesh(
            self._base,
            list(self.failed_links) + [(u, v)],
            self._failed_nodes,
        )

    def without_router(self, node: Coord) -> "FaultyMesh":
        """A copy of this topology with one more failed router.

        >>> t = FaultyMesh(Mesh(3, 3), failed=[]).without_router((1, 1))
        >>> (1, 1) in t.nodes
        False
        >>> any((1, 1) in (l.src, l.dst) for l in t.links)
        False
        """
        return FaultyMesh(
            self._base,
            self.failed_links,
            set(self._failed_nodes) | {node},
        )

    @property
    def n_dims(self) -> int:
        return self._base.n_dims

    @cached_property
    def nodes(self) -> tuple[Coord, ...]:
        if not self._failed_nodes:
            return self._base.nodes
        return tuple(n for n in self._base.nodes if n not in self._failed_nodes)

    @cached_property
    def links(self) -> tuple[Link, ...]:
        return tuple(
            l
            for l in self._base.links
            if frozenset((l.src, l.dst)) not in self._failed
            and l.src not in self._failed_nodes
            and l.dst not in self._failed_nodes
        )

    @cached_property
    def endpoints(self) -> tuple[Coord, ...]:
        if not self._failed_nodes:
            return self._base.endpoints
        return tuple(n for n in self._base.endpoints if n not in self._failed_nodes)

    def minimal_directions(self, cur: Coord, dst: Coord) -> tuple[tuple[int, int], ...]:
        """Base-minimal directions whose links survive.

        May be empty even when ``cur != dst`` (all productive links failed);
        callers needing guaranteed progress should use
        :meth:`progressive_directions`.
        """
        self.validate_node(cur)
        self.validate_node(dst)
        dirs: list[tuple[int, int]] = []
        for dim, sign in self._base.minimal_directions(cur, dst):
            if self._step(cur, dim, sign) is not None:
                dirs.append((dim, sign))
        return tuple(dirs)

    def progressive_directions(self, cur: Coord, dst: Coord) -> tuple[tuple[int, int], ...]:
        """Directions that strictly reduce the surviving-graph distance."""
        return self.nearer_directions(cur, dst)


class GraphTopology(Topology):
    """An arbitrary directed graph as a topology (every link dim 0, sign +1).

    The carrier for arbitrary-network analyses
    (:mod:`repro.core.arbitrary`): nodes are whatever hashable coordinate
    tuples the caller supplies, links are exactly the given directed edges,
    and — since an arbitrary digraph has no geometry — all links share one
    ``(dim=0, sign=+1)`` label, leaving structure to channel classes and
    the dependency relation.  Need not be connected or even have a link
    from every node.

    >>> g = GraphTopology([((0,), (1,)), ((1,), (0,))])
    >>> len(g.nodes), len(g.links)
    (2, 2)
    """

    def __init__(
        self,
        edges: Iterable[tuple[Coord, Coord]],
        nodes: Iterable[Coord] = (),
    ) -> None:
        edge_set: set[tuple[Coord, Coord]] = set()
        node_set: set[Coord] = set(nodes)
        for u, v in edges:
            if u == v:
                raise TopologyError(f"self-loop edge {u} -> {v}")
            edge_set.add((u, v))
            node_set.add(u)
            node_set.add(v)
        if not node_set:
            raise TopologyError("a graph topology needs at least one node")
        try:
            self._nodes = tuple(sorted(node_set))
        except TypeError:
            raise TopologyError(
                "node labels must be mutually comparable (e.g. all numbers or all strings)"
            ) from None
        self._edges = tuple(sorted(edge_set))

    def __repr__(self) -> str:
        return f"GraphTopology({len(self._nodes)} nodes, {len(self._edges)} edges)"

    @property
    def n_dims(self) -> int:
        return 1

    @property
    def nodes(self) -> tuple[Coord, ...]:
        return self._nodes

    @cached_property
    def links(self) -> tuple[Link, ...]:
        return tuple(Link(u, v, 0, +1) for u, v in self._edges)

    def minimal_directions(self, cur: Coord, dst: Coord) -> tuple[tuple[int, int], ...]:
        """``((0, +1),)`` whenever any out-link shortens the path."""
        return ((0, +1),) if self.nearer_directions(cur, dst) else ()

    def progressive_directions(self, cur: Coord, dst: Coord) -> tuple[tuple[int, int], ...]:
        """Same as :meth:`minimal_directions` (one direction label)."""
        return self.minimal_directions(cur, dst)
