"""Turn-table routing: executing an EbDa design.

:class:`TurnTableRouting` turns a partition sequence into a working
routing function: a packet may ride channel class ``b`` after class ``a``
iff ``a == b`` (continuing straight) or ``a -> b`` is an extracted turn.

Turn legality alone is not enough for a *connected* routing function — a
greedy router could take a legal turn into a state from which the
destination is no longer reachable (e.g. going north first under
north-last).  The table therefore computes, per destination it is asked
about, the set of (node, class) states that can still reach it, and only
offers moves that stay inside that set.  This is the standard way turn
models are realised in RTL ("if-else" priority structures, §5.4);
reachability filtering computes those priorities mechanically for any
design.

The set is one linear-time backward search
(:func:`~repro.routing.base.backward_reachable`) over integer states.
The class-to-legal-successor table and the moves per (node, productive
direction tuple) are compiled once per routing instance, so each new
destination costs O(states + moves).
"""

from __future__ import annotations


from repro.core.channel import Channel
from repro.core.extraction import extract_turns
from repro.core.sequence import PartitionSequence
from repro.core.turns import TurnSet
from repro.errors import RoutingError
from repro.routing.base import Candidate, RoutingFunction, backward_reachable
from repro.topology.base import Coord, Topology
from repro.topology.classes import ClassRule, no_classes


class TurnTableRouting(RoutingFunction):
    """Minimal routing constrained to a design's allowed turns.

    Parameters
    ----------
    topology, rule:
        Where and how the design's channel classes are instantiated.
    design:
        The EbDa partition sequence (validated on construction).
    transitions:
        Passed through to :func:`~repro.core.extraction.extract_turns`.
    directions:
        ``"minimal"`` uses the topology's minimal-direction oracle;
        ``"progressive"`` uses ``progressive_directions`` where available
        (irregular topologies whose minimal oracle can dead-end).
    turnset:
        An explicit :class:`TurnSet` to route with instead of extracting
        one from ``design``.  The differential fuzzer uses this to execute
        *mutated* (possibly theorem-violating) turn relations; the design
        still supplies the channel inventory.
    validate:
        ``False`` skips Theorem 1/3 validation of the design — required
        when deliberately routing an invalid design (with ``turnset`` or
        ``transitions`` extraction via ``validate=False`` upstream).
    """

    def __init__(
        self,
        topology: Topology,
        design: PartitionSequence,
        rule: ClassRule = no_classes,
        *,
        transitions: str = "all",
        directions: str = "minimal",
        ui_turns: bool = True,
        fallback: str = "none",
        label: str | None = None,
        turnset: TurnSet | None = None,
        validate: bool = True,
    ) -> None:
        super().__init__(topology, rule)
        self.design = design.validate() if validate else design
        if turnset is not None:
            self.turnset: TurnSet = turnset
        else:
            self.turnset = extract_turns(
                design, transitions=transitions, validate=validate
            )
        if not ui_turns:
            # Ablation/fault-tolerance studies: strip the Theorem-2/3 U- and
            # I-turns, keeping only 90-degree turns.  Still safe (a subset
            # of an acyclic relation), but rerouting around faults loses the
            # reversal capability the paper motivates U-turns with.
            from repro.core.turns import TurnKind

            self.turnset = self.turnset.restrict(
                lambda t: t.kind == TurnKind.DEGREE90
            )
        self._classes = design.all_channels
        if directions not in ("minimal", "progressive"):
            raise RoutingError(f"unknown directions mode {directions!r}")
        if fallback not in ("none", "escape"):
            raise RoutingError(f"unknown fallback mode {fallback!r}")
        self._directions_mode = directions
        # "escape": when no productive turn-legal move exists (e.g. routed
        # into a fault pocket), offer any turn-legal move whose state can
        # still reach the destination.  Safe: the design's concrete CDG is
        # acyclic, so every turn-legal walk visits each wire at most once
        # and must terminate — no livelock is possible.
        self._fallback = fallback
        self._label = label
        self._reach_cache: dict[Coord, frozenset[tuple[Coord, Channel]]] = {}
        # Compiled once per routing for the reachability search, which runs
        # over integer states ``node_index * len(classes) + class_index``:
        # the classes each class may continue on, and per (node, direction
        # tuple) the instantiable moves and the states they legally reach.
        self._states = tuple((node, c) for node in topology.nodes for c in self._classes)
        self._state_of = {state: i for i, state in enumerate(self._states)}
        self._legal_next = tuple(
            frozenset(b for b in self._classes if self.transition_legal(a, b))
            for a in self._classes
        )
        self._moves_cache: dict[
            tuple[Coord, tuple[tuple[int, int], ...]],
            tuple[tuple[Candidate, ...], tuple[tuple[int, ...], ...]],
        ] = {}

    @property
    def channel_classes(self) -> tuple[Channel, ...]:
        return self._classes

    @property
    def name(self) -> str:
        return self._label or f"EbDa[{self.design.arrow_notation()}]"

    # -- direction oracle ------------------------------------------------------

    def _productive(self, cur: Coord, dst: Coord) -> tuple[tuple[int, int], ...]:
        if self._directions_mode == "progressive":
            oracle = getattr(self.topology, "progressive_directions", None)
            if oracle is not None:
                return oracle(cur, dst)
        return self.topology.minimal_directions(cur, dst)

    # -- transition legality ----------------------------------------------------

    def transition_legal(self, in_channel: Channel | None, out_channel: Channel) -> bool:
        """May a packet on ``in_channel`` continue on ``out_channel``?"""
        if in_channel is None or in_channel == out_channel:
            return True
        return self.turnset.allows(in_channel, out_channel)

    # -- reachability ------------------------------------------------------------

    def _reachable_states(self, dst: Coord) -> frozenset[tuple[Coord, Channel]]:
        """(node, class) states from which ``dst`` is reachable.

        A state (v, c) reaches dst when v == dst, or some productive legal
        move lands in a reachable state: one backward search per
        destination over the move/legal-transition graph.
        """
        cached = self._reach_cache.get(dst)
        if cached is not None:
            return cached
        self.topology.validate_node(dst)
        width = len(self._classes)
        escape = self._fallback == "escape"
        succ: dict[int, tuple[tuple[int, ...], ...]] = {}
        for index, node in enumerate(self.topology.nodes):
            if node == dst:
                seeds = range(index * width, (index + 1) * width)
            else:
                if escape:
                    dirs = self._all_directions(node)
                else:
                    dirs = tuple(self._productive(node, dst))
                succ[index] = self._moves_along(node, dirs)[1]
        reached = backward_reachable(
            seeds,
            [index * width + k for index in succ for k in range(width)],
            lambda state: succ[state // width][state % width],
        )
        frozen = frozenset(self._states[state] for state in reached)
        self._reach_cache[dst] = frozen
        return frozen

    def _moves_along(
        self, cur: Coord, directions: tuple[tuple[int, int], ...]
    ) -> tuple[tuple[Candidate, ...], tuple[tuple[int, ...], ...]]:
        """Moves along ``directions``, and per class the states they legally reach.

        Memoised per (node, direction tuple).
        """
        key = (cur, directions)
        entry = self._moves_cache.get(key)
        if entry is None:
            moves = tuple(self._outputs_matching(cur, directions))
            entry = self._moves_cache[key] = (moves, tuple(
                tuple(self._state_of[move] for move in moves if move[1] in legal)
                for legal in self._legal_next
            ))
        return entry

    def _all_directions(self, cur: Coord) -> tuple[tuple[int, int], ...]:
        """Every direction with an out-link at ``cur``, sorted."""
        return tuple(sorted({(l.dim, l.sign) for l in self.topology.out_links(cur)}))

    def _raw_moves(self, cur: Coord, dst: Coord) -> tuple[Candidate, ...]:
        """Productive (next, class) moves ignoring turn legality."""
        return self._moves_along(cur, tuple(self._productive(cur, dst)))[0]

    def _all_moves(self, cur: Coord) -> tuple[Candidate, ...]:
        """Every instantiable (next, class) move, productive or not."""
        return self._moves_along(cur, self._all_directions(cur))[0]

    # -- the routing function -----------------------------------------------------

    def candidates(self, cur: Coord, dst: Coord, in_channel: Channel | None) -> list[Candidate]:
        if cur == dst:
            return []
        reachable = self._reachable_states(dst)

        def legal_reachable(moves: tuple[Candidate, ...]) -> list[Candidate]:
            out = []
            for nxt, ch in moves:
                if not self.transition_legal(in_channel, ch):
                    continue
                if nxt != dst and (nxt, ch) not in reachable:
                    continue
                out.append((nxt, ch))
            return out

        out = legal_reachable(self._raw_moves(cur, dst))
        if not out and self._fallback == "escape":
            # No productive legal move (fault pocket): escape via any
            # turn-legal move that keeps the destination reachable — this
            # is where Theorem-2/3 U-turns earn their keep.
            out = legal_reachable(self._all_moves(cur))
        # Offer the most progress-making moves first so that greedy
        # selection policies route quasi-minimally; on plain meshes every
        # candidate ties (all minimal), on elevator topologies this ranks
        # nearer-elevator routes ahead of legal detours.
        out.sort(key=lambda cand: self.topology.distance(cand[0], dst))
        return out

    # -- diagnostics ---------------------------------------------------------------

    def is_connected(self) -> bool:
        """Every (src, dst) pair routable from injection?

        The design is *connected* when a freshly injected packet at any
        source has at least one candidate toward every destination.
        """
        for src in self.topology.nodes:
            for dst in self.topology.nodes:
                if src == dst:
                    continue
                if not self.candidates(src, dst, None):
                    return False
        return True

    def dead_pairs(self) -> list[tuple[Coord, Coord]]:
        """All (src, dst) pairs with no route from injection (diagnostics)."""
        out = []
        for src in self.topology.nodes:
            for dst in self.topology.nodes:
                if src != dst and not self.candidates(src, dst, None):
                    out.append((src, dst))
        return out
