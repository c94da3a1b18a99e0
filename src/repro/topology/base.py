"""Topology abstractions: nodes, directed links, dimension geometry.

A topology is a directed graph over integer-coordinate nodes where every
link is labelled with the dimension it traverses and its direction sign.
The label is what connects the physical network to the EbDa channel
algebra: a design channel ``X2+`` is *instantiated* on every link labelled
``(dim=0, sign=+1)`` whose spatial class matches (see
:mod:`repro.topology.classes`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Sequence

from repro.errors import TopologyError
from repro.store import digest

Coord = tuple[int, ...]


@dataclass(frozen=True, order=True)
class Link:
    """A unidirectional physical link labelled with its geometry.

    ``dim``/``sign`` describe the move the link performs; a torus wrap link
    from ``(3, 0)`` to ``(0, 0)`` still has ``dim=0, sign=+1`` because the
    packet moves in the increasing-X direction (modulo the ring).
    """

    src: Coord
    dst: Coord
    dim: int
    sign: int
    # Set per instance by __post_init__; ClassVar keeps it out of the fields.
    _hash: ClassVar[int]

    def __post_init__(self) -> None:
        # Hashed once (the dataclass-default value, so set orders do not
        # change): links key the wire maps and, inside wires, every CDG.
        object.__setattr__(self, "_hash", hash((self.src, self.dst, self.dim, self.sign)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[type[Link], tuple[Coord, Coord, int, int]]:
        # Pickle the fields only; the unpickling process hashes afresh.
        return Link, (self.src, self.dst, self.dim, self.sign)

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def is_wraparound(self) -> bool:
        """True for torus wrap links (coordinate jumps against the sign)."""
        delta = self.dst[self.dim] - self.src[self.dim]
        return delta * self.sign < 0


class Topology(ABC):
    """Base class for all network shapes.

    Concrete subclasses provide the node set, the link set and the minimal
    direction oracle; everything else (lookup maps, adjacency, hop
    distances) derives from those.
    """

    @property
    @abstractmethod
    def n_dims(self) -> int:
        """Number of dimensions."""

    @property
    @abstractmethod
    def nodes(self) -> tuple[Coord, ...]:
        """Every node coordinate."""

    @property
    @abstractmethod
    def links(self) -> tuple[Link, ...]:
        """Every unidirectional link."""

    @abstractmethod
    def minimal_directions(self, cur: Coord, dst: Coord) -> tuple[tuple[int, int], ...]:
        """The productive ``(dim, sign)`` moves from ``cur`` toward ``dst``.

        Empty exactly when ``cur == dst``.
        """

    # -- derived structure ---------------------------------------------------

    @property
    def endpoints(self) -> tuple[Coord, ...]:
        """Nodes that source/sink traffic (all of them, unless a topology
        distinguishes terminals from switches — e.g. fat-trees)."""
        return self.nodes

    @cached_property
    def content_token(self) -> str:
        """A content-addressed token for this topology.

        ``repr`` alone distinguishes the stock shapes (``Mesh(4, 4)``); the
        link digest additionally catches degraded/irregular instances whose
        repr under-describes the wiring.  Computed once per object (a
        topology never changes after construction) and pickled with it.
        """
        links = "\n".join(
            f"{l.src}>{l.dst}:{l.dim}{l.sign:+d}" for l in sorted(self.links)
        )
        return f"{self!r}|n={len(self.nodes)}|links={digest(links, 16)}"

    @cached_property
    def node_set(self) -> frozenset[Coord]:
        return frozenset(self.nodes)

    @cached_property
    def _out_links(self) -> dict[Coord, tuple[Link, ...]]:
        out: dict[Coord, list[Link]] = {node: [] for node in self.nodes}
        for link in self.links:
            out[link.src].append(link)
        return {node: tuple(ls) for node, ls in out.items()}

    @cached_property
    def _in_links(self) -> dict[Coord, tuple[Link, ...]]:
        inn: dict[Coord, list[Link]] = {node: [] for node in self.nodes}
        for link in self.links:
            inn[link.dst].append(link)
        return {node: tuple(ls) for node, ls in inn.items()}

    @cached_property
    def _link_map(self) -> dict[tuple[Coord, Coord], Link]:
        return {(l.src, l.dst): l for l in self.links}

    def out_links(self, node: Coord) -> tuple[Link, ...]:
        """Links leaving ``node``."""
        try:
            return self._out_links[node]
        except KeyError:
            raise TopologyError(f"node {node} is not in the topology") from None

    def in_links(self, node: Coord) -> tuple[Link, ...]:
        """Links arriving at ``node``."""
        try:
            return self._in_links[node]
        except KeyError:
            raise TopologyError(f"node {node} is not in the topology") from None

    def link(self, src: Coord, dst: Coord) -> Link:
        """The link from ``src`` to ``dst``."""
        try:
            return self._link_map[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src} -> {dst}") from None

    def has_link(self, src: Coord, dst: Coord) -> bool:
        """True when a direct link exists."""
        return (src, dst) in self._link_map

    def neighbors(self, node: Coord) -> tuple[Coord, ...]:
        """Nodes one hop away from ``node``."""
        return tuple(l.dst for l in self.out_links(node))

    @cached_property
    def _hop_cache(self) -> dict[Coord, dict[Coord, int]]:
        return {}

    def hop_distances(self, src: Coord) -> dict[Coord, int]:
        """Hop counts from ``src`` to every node it reaches over the links.

        The library's one distance search: a breadth-first search over
        the out-links (so a degraded or irregular topology measures the
        links it has), run once per source and cached.  Nodes with no
        directed path from ``src`` are absent.
        """
        dist = self._hop_cache.get(src)
        if dist is None:
            self.validate_node(src)
            out_links = self._out_links
            dist = {src: 0}
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                hops = dist[cur] + 1
                for link in out_links[cur]:
                    if link.dst not in dist:
                        dist[link.dst] = hops
                        queue.append(link.dst)
            self._hop_cache[src] = dist
        return dist

    def distance(self, src: Coord, dst: Coord) -> int:
        """Minimal hop count from ``src`` to ``dst``.

        Read off :meth:`hop_distances`; shapes with a closed form override
        it.  Raises :class:`TopologyError` when no directed path exists.
        """
        self.validate_node(dst)
        try:
            return self.hop_distances(src)[dst]
        except KeyError:
            raise TopologyError(f"no directed path {src} -> {dst}") from None

    def nearer_directions(self, cur: Coord, dst: Coord) -> tuple[tuple[int, int], ...]:
        """The ``(dim, sign)`` of each out-link of ``cur`` whose far end is
        nearer ``dst``, in out-link order (one entry per such link).

        Empty when ``cur == dst`` or when no directed path leads to ``dst``.
        """
        self.validate_node(dst)
        here = self.hop_distances(cur).get(dst)
        if here is None:
            return ()
        return tuple(
            (link.dim, link.sign)
            for link in self._out_links[cur]
            if self.hop_distances(link.dst).get(dst, here) < here
        )

    def _step(self, cur: Coord, dim: int, sign: int) -> Coord | None:
        """The neighbour reached by moving (dim, sign), if the link exists."""
        for link in self.out_links(cur):
            if link.dim == dim and link.sign == sign:
                return link.dst
        return None

    def validate_node(self, node: Coord) -> Coord:
        """Raise :class:`TopologyError` unless ``node`` exists."""
        if node not in self.node_set:
            raise TopologyError(f"node {node} is not in the topology")
        return node


def dim_sign(dim: int, sign: int) -> str:
    """Human-readable direction label, e.g. ``'X+'``."""
    from repro.core.channel import dim_name

    return f"{dim_name(dim)}{'+' if sign > 0 else '-'}"


def grid_nodes(shape: Sequence[int]) -> tuple[Coord, ...]:
    """All coordinates of a dense grid with the given per-dimension sizes."""
    if not shape or any(k < 1 for k in shape):
        raise TopologyError(f"invalid grid shape {tuple(shape)}")
    coords: list[Coord] = [()]
    for size in shape:
        coords = [c + (i,) for c in coords for i in range(size)]
    # Build in row-major order over the *last* dimension fastest; reorder so
    # the first dimension varies fastest for readability.
    return tuple(sorted(coords))
