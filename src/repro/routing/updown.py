"""Up*/Down* routing (Schroeder et al., Autonet) for irregular networks.

The classic spanning-tree algorithm cited in the proof of Theorem 2: build
a BFS tree, orient every link *up* (toward the root: lower level, ties by
node order) or *down*, and forbid up-links after down-links.  Legal routes
are therefore "zero or more up hops, then zero or more down hops" —
channels taken in a strictly ascending two-partition order, which is why
the paper can reuse the argument for its U-turn numbering.

Up/down-ness is a property of the concrete link, modelled as a spatial
class (``u``/``d``) via :meth:`UpDownRouting.class_rule`.
"""

from __future__ import annotations

from repro.core.channel import Channel
from repro.errors import RoutingError
from repro.routing.base import Candidate, RoutingFunction, backward_reachable
from repro.topology.base import Coord, Link, Topology


class UpDownRouting(RoutingFunction):
    """Up*/Down* over any connected topology.

    Parameters
    ----------
    topology:
        Any topology; typically a :class:`~repro.topology.FaultyMesh`.
    root:
        Root of the BFS spanning tree (defaults to the first node).
    levels:
        Explicit node levels overriding the BFS labelling.  Multi-rooted
        topologies (fat-trees: all spines at level 0) need this — a BFS
        tree from a single spine would turn the other spines into "down"
        nodes and funnel all traffic through the root.
    """

    def __init__(
        self,
        topology: Topology,
        root: Coord | None = None,
        levels: dict[Coord, int] | None = None,
    ) -> None:
        # The class rule is derived from the levels, so it is built here
        # rather than passed in.
        if levels is not None:
            missing = set(topology.nodes) - set(levels)
            if missing:
                raise RoutingError(f"levels missing for nodes: {sorted(missing)[:4]}...")
            self._root = min(levels, key=lambda n: (levels[n], n))
            self._levels = dict(levels)
        else:
            self._root = root if root is not None else topology.nodes[0]
            topology.validate_node(self._root)
            self._levels = dict(topology.hop_distances(self._root))
            if len(self._levels) != len(topology.nodes):
                raise RoutingError("topology is not connected; Up*/Down* needs a spanning tree")
        super().__init__(topology, self.class_rule)
        self._classes = tuple(
            Channel(dim, sign, cls=tag)
            for dim in range(topology.n_dims)
            for sign in (+1, -1)
            for tag in ("u", "d")
        )
        self._reach_cache: dict[Coord, frozenset[tuple[Coord, Channel]]] = {}

    def is_up(self, link: Link) -> bool:
        """Does the link point up (toward the root)?"""
        a, b = self._levels[link.src], self._levels[link.dst]
        if a != b:
            return b < a
        return link.dst < link.src  # deterministic tie-break

    def class_rule(self, link: Link) -> str:
        """The spatial-class rule binding ``u``/``d`` tags to links."""
        return "u" if self.is_up(link) else "d"

    @property
    def channel_classes(self) -> tuple[Channel, ...]:
        return self._classes

    @property
    def name(self) -> str:
        return "up-down"

    def _legal(self, in_channel: Channel | None, out_channel: Channel) -> bool:
        # Never an up-link after a down-link.
        if in_channel is None:
            return True
        return not (in_channel.cls == "d" and out_channel.cls == "u")

    def _all_moves(self, cur: Coord) -> list[Candidate]:
        out: list[Candidate] = []
        for link in self.topology.out_links(cur):
            tag = self.rule(link)
            for ch in self._classes:
                if ch.dim == link.dim and ch.sign == link.sign and ch.cls == tag:
                    out.append((link.dst, ch))
        return out

    def _reachable(self, dst: Coord) -> frozenset[tuple[Coord, Channel]]:
        cached = self._reach_cache.get(dst)
        if cached is not None:
            return cached
        moves = {node: self._all_moves(node) for node in self.topology.nodes}

        def legal_moves(state: tuple[Coord, Channel]) -> list[tuple[Coord, Channel]]:
            node, c = state
            return [(nxt, ch) for nxt, ch in moves[node] if self._legal(c, ch)]

        frozen = backward_reachable(
            [(dst, c) for c in self._classes],
            [(node, c) for node in self.topology.nodes if node != dst for c in self._classes],
            legal_moves,
        )
        self._reach_cache[dst] = frozen
        return frozen

    def candidates(self, cur: Coord, dst: Coord, in_channel: Channel | None) -> list[Candidate]:
        if cur == dst:
            return []
        reachable = self._reachable(dst)
        here = self.topology.distance(cur, dst)
        out: list[Candidate] = []
        fallback: list[Candidate] = []
        for nxt, ch in self._all_moves(cur):
            if not self._legal(in_channel, ch):
                continue
            if nxt != dst and (nxt, ch) not in reachable:
                continue
            # Prefer shortest-progress moves; keep legal non-progress moves
            # as a fallback so constrained pairs (up/down detours) still
            # route.
            if self.topology.distance(nxt, dst) < here:
                out.append((nxt, ch))
            else:
                fallback.append((nxt, ch))
        return out or fallback


class GreedyUpDownRouting(UpDownRouting):
    """Up*/Down* with the down-then-up prohibition removed — a negative control.

    Keeps the ``u``/``d`` link tags and the progress-first candidate
    ordering but drops both the legality filter and the restriction to
    productive moves: every out-link is always offered, non-progress moves
    last.  This is the textbook broken design — greedy shortest-path over
    a tree-levelled network with no turn restriction — and on any fat-tree
    with at least two spines and two leaves its dependency graph contains
    leaf -> spine -> leaf up/down cycles, so every static oracle flags it
    and the simulator can be driven into them.  The fuzzer uses it to
    check the five oracles agree on *unsafe* hierarchical designs.
    """

    @property
    def name(self) -> str:
        return "greedy-up-down"

    def _legal(self, in_channel: Channel | None, out_channel: Channel) -> bool:
        return True

    def candidates(self, cur: Coord, dst: Coord, in_channel: Channel | None) -> list[Candidate]:
        if cur == dst:
            return []
        here = self.topology.distance(cur, dst)
        progress: list[Candidate] = []
        rest: list[Candidate] = []
        for nxt, ch in self._all_moves(cur):
            if self.topology.distance(nxt, dst) < here:
                progress.append((nxt, ch))
            else:
                rest.append((nxt, ch))
        return progress + rest
