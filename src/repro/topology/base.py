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
    direction oracle; everything else (lookup maps, adjacency) derives from
    those.
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

    def distance(self, src: Coord, dst: Coord) -> int:
        """Minimal hop count from ``src`` to ``dst``."""
        total = 0
        cur = src
        # Generic implementation: walk greedily using the minimal-direction
        # oracle; subclasses with closed forms override this.
        visited = 0
        while cur != dst:
            dirs = self.minimal_directions(cur, dst)
            if not dirs:
                raise TopologyError(f"no minimal route from {cur} to {dst}")
            dim, sign = dirs[0]
            nxt = self._step(cur, dim, sign)
            if nxt is None:
                raise TopologyError(f"cannot move {dim_sign(dim, sign)} from {cur}")
            cur = nxt
            total += 1
            visited += 1
            if visited > len(self.nodes):
                raise TopologyError("distance walk did not converge")
        return total

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
