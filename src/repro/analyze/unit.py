"""The analyzer's input: a design plus everything statically knowable.

A :class:`DesignUnit` bundles a :class:`~repro.core.sequence.PartitionSequence`
with the :class:`~repro.core.turns.TurnSet` actually granted to routers
(possibly hand-edited or mutated — judging it is the rules' job), an
optional topology + class rule for the topology-aware rules, and analysis
options such as a full-adaptivity claim.

Nothing here builds a concrete CDG or touches the simulator: the topology
is only consulted for its *link structure* (wrap rings, class-rule tags),
which is O(links) to enumerate.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
from typing import Protocol, runtime_checkable

from repro.core.catalog import design as catalog_design
from repro.core.channel import NEG, POS, Channel
from repro.core.extraction import extract_turns
from repro.core.sequence import PartitionSequence
from repro.core.turns import TurnSet
from repro.errors import EbdaError
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes, rule_for_design
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mesh import Mesh

__all__ = [
    "NATIVE_LINT",
    "DesignUnit",
    "Direction",
    "TableProtocol",
    "default_lint_unit",
    "requirement_sets",
]

#: A movement direction: (dimension index, sign).
Direction = tuple[int, int]

#: Beyond-mesh catalog designs lint on their native topologies: design
#: name -> (topology factory, rule IDs to ignore).  The dragonfly pair
#: drops EBDA005, whose torus wrap-ring premise misreads dragonfly global
#: 2-rings; EBDA012 (the global-loop analogue) is the real dragonfly
#: check and stays enabled.
NATIVE_LINT: dict[str, tuple[Callable[[], Topology], tuple[str, ...]]] = {
    "dragonfly-minimal": (lambda: Dragonfly(4), ("EBDA005",)),
    "dragonfly-valiant": (lambda: Dragonfly(4), ("EBDA005",)),
    "fattree-updown": (lambda: FatTree(4, 2, 2), ()),
}


def requirement_sets(dims: tuple[int, ...]) -> Iterator[frozenset[Direction]]:
    """Every nonempty minimal-routing requirement: <=1 direction per dimension."""
    choices: list[tuple[Direction | None, ...]] = [
        ((d, POS), (d, NEG), None) for d in dims
    ]
    for combo in product(*choices):
        s = frozenset(c for c in combo if c is not None)
        if s:
            yield s


@runtime_checkable
class TableProtocol(Protocol):
    """Structural type for routings the analyzer can lint directly.

    Any routing exposing its design, granted turn set, topology and class
    rule — :class:`~repro.routing.table.TurnTableRouting` is the canonical
    implementation — can be handed to :meth:`DesignUnit.from_routing`.
    """

    design: PartitionSequence
    turnset: TurnSet
    topology: Topology
    rule: ClassRule


@dataclass(frozen=True)
class DesignUnit:
    """One design under static analysis."""

    sequence: PartitionSequence
    turnset: TurnSet
    name: str = ""
    #: Optional concrete topology: enables the topology-aware rules
    #: (wrap rings, phantom classes).  Never used to build a CDG.
    topology: Topology | None = None
    rule: ClassRule = no_classes
    #: Design intent: set when the designer claims full adaptivity, arming
    #: the Section-4 minimum-channel check (EBDA009).
    claims_fully_adaptive: bool = False
    #: Extra context echoed into reports (free-form).
    tags: tuple[str, ...] = field(default=())

    # -- construction ------------------------------------------------------

    @classmethod
    def from_sequence(
        cls,
        sequence: PartitionSequence | str,
        *,
        name: str = "",
        topology: Topology | None = None,
        rule: ClassRule = no_classes,
        transitions: str = "all",
        claims_fully_adaptive: bool = False,
    ) -> DesignUnit:
        """Compile a (possibly invalid) sequence into a lintable unit.

        Turn extraction deliberately skips theorem validation — surfacing
        violations as diagnostics is the analyzer's entire purpose.
        """
        if isinstance(sequence, str):
            sequence = PartitionSequence.parse(sequence)
        turnset = extract_turns(sequence, transitions=transitions, validate=False)
        return cls(
            sequence=sequence,
            turnset=turnset,
            name=name or sequence.arrow_notation(),
            topology=topology,
            rule=rule,
            claims_fully_adaptive=claims_fully_adaptive,
        )

    @classmethod
    def from_routing(cls, routing: TableProtocol, *, name: str = "") -> DesignUnit:
        """Lint a live routing through the table protocol.

        Accepts any object exposing ``design``/``turnset``/``topology``/
        ``rule`` (duck-typed, checked at runtime).
        """
        for attr in ("design", "turnset", "topology", "rule"):
            if not hasattr(routing, attr):
                raise EbdaError(
                    f"{type(routing).__name__} does not implement the table"
                    f" protocol (missing {attr!r}); lint the PartitionSequence"
                    " directly instead"
                )
        return cls(
            sequence=routing.design,
            turnset=routing.turnset,
            name=name or getattr(routing, "name", "") or type(routing).__name__,
            topology=routing.topology,
            rule=routing.rule,
        )

    def with_topology(self, topology: Topology, rule: ClassRule | None = None) -> DesignUnit:
        """A copy bound to a concrete topology (arms topology-aware rules)."""
        return replace(self, topology=topology, rule=rule if rule is not None else self.rule)

    # -- derived structure (cached: units are frozen) ----------------------

    @cached_property
    def channels(self) -> tuple[Channel, ...]:
        """Every channel class of the design, in sequence order."""
        return self.sequence.all_channels

    @cached_property
    def dims(self) -> tuple[int, ...]:
        """Sorted dimension indices the design's channels cover."""
        return tuple(sorted({ch.dim for ch in self.channels}))

    @cached_property
    def directions(self) -> frozenset[tuple[int, int]]:
        """Every (dim, sign) movement direction some channel provides."""
        return frozenset((ch.dim, ch.sign) for ch in self.channels)

    def channels_of_direction(self, dim: int, sign: int) -> tuple[Channel, ...]:
        """All channel classes providing movement along (dim, sign)."""
        return tuple(ch for ch in self.channels if ch.dim == dim and ch.sign == sign)

    @cached_property
    def completions(self) -> dict[frozenset[Direction], frozenset[Channel | None]]:
        """Where a turn-closed channel walk can serve each requirement set.

        Keys are the requirement sets of minimal routing: at most one
        (dim, sign) direction per dimension of :attr:`dims` (the empty set
        included).  Each value holds the channels from which some walk
        serves every direction of the set; ``None`` stands for "at
        injection".  A walk consumes a required direction by stepping onto
        a channel that provides it (:meth:`step_allowed`: injection, going
        straight or an allowed turn), or switches between channels of one
        direction by an allowed I-turn (how dateline designs change class
        mid-dimension).  This is the class-level abstraction of minimal
        routing EBDA008/EBDA010 judge connectivity by.

        Built bottom-up by set size: a channel wins ``R`` if it may step
        onto a channel of some ``d`` in ``R`` that wins ``R - {d}``; ``R``
        is then closed under I-turns into winning channels.
        """
        chans = self.channels
        by_dir: dict[Direction, list[Channel]] = {}
        for ch in chans:
            by_dir.setdefault((ch.dim, ch.sign), []).append(ch)
        # Once per unit: the channels each channel may step onto, and the
        # other channels of its direction that I-turn onto it.
        succ = {a: frozenset(b for b in chans if self.step_allowed(a, b)) for a in chans}
        i_preds = {
            b: tuple(
                a for a in by_dir[b.dim, b.sign] if a != b and self.turnset.allows(a, b)
            )
            for b in chans
        }
        table: dict[frozenset[Direction], frozenset[Channel | None]] = {
            frozenset(): frozenset((*chans, None))
        }
        for need in sorted(requirement_sets(self.dims), key=len):
            targets = {
                ch for d in need for ch in by_dir.get(d, ()) if ch in table[need - {d}]
            }
            stack = [a for a in chans if not succ[a].isdisjoint(targets)]
            won: set[Channel | None] = {None, *stack} if targets else set()
            while stack:
                for a in i_preds[stack.pop()]:
                    if a not in won:
                        won.add(a)
                        stack.append(a)
            table[need] = frozenset(won)
        return table

    def step_allowed(self, src: Channel | None, dst: Channel) -> bool:
        """May a packet hop onto ``dst`` coming from ``src``?

        Injection (``src is None``) and continuing straight are always
        legal; anything else requires an explicit turn.
        """
        return src is None or src == dst or self.turnset.allows(src, dst)


def default_lint_unit(
    name: str, sequence: PartitionSequence | None = None
) -> tuple[DesignUnit, tuple[str, ...]]:
    """The unit a design lints as by default, and the rule IDs it also ignores.

    A :data:`NATIVE_LINT` design binds to its native topology, any other
    to a radix-4 mesh over its dimensions; the rule is ``rule_for_design``.
    ``sequence`` defaults to the catalog design ``name``.
    """
    if sequence is None:
        sequence = catalog_design(name)
    if name in NATIVE_LINT:
        make_topology, ignore = NATIVE_LINT[name]
        topology = make_topology()
    else:
        n_dims = len({ch.dim for ch in sequence.all_channels})
        topology, ignore = Mesh(*((4,) * max(1, n_dims))), ()
    unit = DesignUnit.from_sequence(
        sequence, name=name, topology=topology, rule=rule_for_design(name)
    )
    return unit, ignore
