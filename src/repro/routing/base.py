"""Routing function interface.

A routing function answers one question: *given a packet at router ``cur``
heading for ``dst`` that arrived over channel class ``in_channel`` (None
for freshly injected packets), which (next node, channel class) outputs may
it take?*

The interface is deliberately stateless per query — all history a router
needs is the incoming channel class, which is exactly the property EbDa
guarantees (partition order and Theorem-2 numbering are encoded in the
class-level turn set).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

from repro.core.channel import Channel
from repro.topology.base import Coord, Topology
from repro.topology.classes import ClassRule, no_classes

#: One routing option: the next node and the channel class to ride.
Candidate = tuple[Coord, Channel]

_State = TypeVar("_State", bound=Hashable)


def backward_reachable(
    seeds: Iterable[_State],
    states: Iterable[_State],
    moves: Callable[[_State], Iterable[_State]],
) -> frozenset[_State]:
    """Every state from which some seed is reachable along ``moves``.

    ``moves(state)`` lists the successors of each of ``states``; a state
    not in ``states`` has none.  The result is the least fixpoint of
    "a seed, or a state with a move into the set", computed as one
    backward search: the reverse adjacency is built once and a worklist
    expands each reached state exactly once, so the cost is
    O(states + moves).  Routing functions use it to keep only the
    (node, class) states from which a destination stays reachable.
    """
    preds: dict[_State, list[_State]] = {}
    for state in states:
        for nxt in moves(state):
            bucket = preds.get(nxt)
            if bucket is None:
                preds[nxt] = [state]
            else:
                bucket.append(state)
    reached = set(seeds)
    frontier = list(reached)
    while frontier:
        for prev in preds.get(frontier.pop(), ()):
            if prev not in reached:
                reached.add(prev)
                frontier.append(prev)
    return frozenset(reached)


class RoutingFunction(ABC):
    """Base class for all routing algorithms."""

    #: Declares whether :meth:`candidates` ever reads ``in_channel``.
    #: Subclasses whose candidate sets are provably independent of the
    #: arrival channel set this False, which lets the vectorized backend
    #: share one routing memo across every input port of a router.  Like
    #: :meth:`route_signature`, this is a correctness contract: declare
    #: False only when the implementation visibly never touches the
    #: argument.
    uses_in_channel: bool = True

    def __init__(self, topology: Topology, rule: ClassRule = no_classes) -> None:
        self.topology = topology
        self.rule = rule

    @property
    @abstractmethod
    def channel_classes(self) -> tuple[Channel, ...]:
        """Every channel class the algorithm uses (defines link VC sets)."""

    @abstractmethod
    def candidates(self, cur: Coord, dst: Coord, in_channel: Channel | None) -> list[Candidate]:
        """Legal outputs for a packet at ``cur`` bound for ``dst``.

        ``in_channel`` is the class the packet's head arrived on, or None
        at the source router.  An empty list at ``cur == dst`` means
        *eject*; an empty list elsewhere is a routing dead-end and treated
        as a bug by the simulator.
        """

    def target_of(self, packet, cur: Coord) -> Coord:
        """The node the routing function steers ``packet`` toward at ``cur``.

        Unicast algorithms steer toward ``packet.dst``.  Path-based
        multicast algorithms override this to return the next unvisited
        waypoint, which the simulator then passes to :meth:`candidates`.
        """
        return packet.dst

    def route_signature(self, cur: Coord, dst: Coord):
        """Optional coarse memoization key for :meth:`candidates`.

        A hashable value such that ``candidates(cur, dst1, ch)`` equals
        ``candidates(cur, dst2, ch)`` (for any ``ch``) whenever ``dst1``
        and ``dst2`` share the signature at ``cur`` — or None (the
        default) when no such coarsening is known.  The vectorized
        backend uses this to collapse its routing memo from
        per-destination to per-direction-class, which is what makes
        uniform random traffic converge instead of querying the routing
        function for every (router, destination) pair it ever sees.

        Override ONLY where the invariance is provable from the routing
        definition (e.g. dimension-order routing reads the destination
        exclusively through ``topology.minimal_directions``).  A wrong
        signature silently corrupts routing — it is a correctness
        contract, not a heuristic.
        """
        return None

    # -- helpers shared by implementations ------------------------------------

    def _outputs_matching(
        self,
        cur: Coord,
        directions: Sequence[tuple[int, int]],
        classes: Sequence[Channel] | None = None,
    ) -> list[Candidate]:
        """All (next, class) pairs leaving ``cur`` along the given directions.

        Classes are filtered to those instantiable on each link under the
        class rule.
        """
        classes = tuple(classes) if classes is not None else self.channel_classes
        out: list[Candidate] = []
        wanted = set(directions)
        for link in self.topology.out_links(cur):
            if (link.dim, link.sign) not in wanted:
                continue
            tag = self.rule(link)
            for ch in classes:
                if ch.dim == link.dim and ch.sign == link.sign and ch.cls == tag:
                    out.append((link.dst, ch))
        return out

    @property
    def name(self) -> str:
        """Display name (class name unless overridden)."""
        return type(self).__name__
