"""Turns: ordered transitions between two channels.

The paper distinguishes (Definitions 4-5 and Section 3):

* **90-degree turns** — the two channels lie in different dimensions;
* **I-turns** (0-degree) — same dimension, same direction (different VC or
  spatial class);
* **U-turns** (180-degree) — same dimension, opposite directions.

A :class:`TurnSet` is the compiled artifact of an EbDa design: the complete
set of channel-class transitions a router may grant.  Because the set is
derived from an ordered partition sequence, membership is a *local*
legality test — a packet whose previous hop used channel class ``a`` may be
forwarded on channel class ``b`` iff ``(a, b)`` is in the set.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum

from repro.core.channel import Channel


class TurnKind(str, Enum):
    """Geometric classification of a turn."""

    DEGREE90 = "90-degree"
    UTURN = "U-turn"
    ITURN = "I-turn"


@dataclass(frozen=True, order=True)
class Turn:
    """An ordered transition from channel class ``src`` to ``dst``."""

    src: Channel
    dst: Channel

    @property
    def kind(self) -> TurnKind:
        """90-degree, U-turn or I-turn, per Definitions 4 and 5."""
        if self.src.dim != self.dst.dim:
            return TurnKind.DEGREE90
        if self.src.sign == self.dst.sign:
            return TurnKind.ITURN
        return TurnKind.UTURN

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"

    def __repr__(self) -> str:
        return f"Turn({self})"

    @property
    def reverse(self) -> "Turn":
        """The opposite transition ``dst -> src``."""
        return Turn(self.dst, self.src)

    @classmethod
    def parse(cls, text: str) -> "Turn":
        """Parse ``"X+->Y-"`` notation.

        >>> Turn.parse("X+->Y-").kind
        <TurnKind.DEGREE90: '90-degree'>
        """
        src, _, dst = text.partition("->")
        return cls(Channel.parse(src), Channel.parse(dst))


def turn(src: str | Channel, dst: str | Channel) -> Turn:
    """Convenience constructor accepting channel notation strings."""
    if isinstance(src, str):
        src = Channel.parse(src)
    if isinstance(dst, str):
        dst = Channel.parse(dst)
    return Turn(src, dst)


class TurnSet:
    """An immutable collection of allowed turns with provenance.

    ``rules`` maps a provenance label (e.g. ``"Theorem1 in PA"`` or
    ``"Theorem3 PA->PB"``) to the turns contributed by that rule, mirroring
    the layout of Figure 8 in the paper.
    """

    __slots__ = ("_rules", "_flat", "_pairs")

    def __init__(self, rules: Mapping[str, Iterable[Turn]]) -> None:
        self._rules: dict[str, tuple[Turn, ...]] = {
            label: tuple(turns) for label, turns in rules.items()
        }
        flat: set[Turn] = set()
        for turns in self._rules.values():
            flat.update(turns)
        self._flat = frozenset(flat)
        self._pairs = frozenset((t.src, t.dst) for t in flat)

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Turn]:
        return iter(sorted(self._flat))

    def __len__(self) -> int:
        return len(self._flat)

    def __contains__(self, item: Turn | tuple[Channel, Channel]) -> bool:
        if isinstance(item, Turn):
            return item in self._flat
        return tuple(item) in self._pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TurnSet):
            return NotImplemented
        return self._flat == other._flat

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:
        return f"TurnSet({len(self._flat)} turns, {len(self._rules)} rules)"

    # -- queries -------------------------------------------------------------

    def allows(self, src: Channel, dst: Channel) -> bool:
        """Local legality test: may a packet move from class ``src`` to ``dst``?"""
        return (src, dst) in self._pairs

    @property
    def turns(self) -> frozenset[Turn]:
        """All allowed turns, flattened."""
        return self._flat

    @property
    def rules(self) -> dict[str, tuple[Turn, ...]]:
        """Provenance-labelled turn groups (a copy)."""
        return dict(self._rules)

    def of_kind(self, kind: TurnKind) -> tuple[Turn, ...]:
        """All turns of one geometric kind, sorted."""
        return tuple(sorted(t for t in self._flat if t.kind == kind))

    def count_by_kind(self) -> dict[TurnKind, int]:
        """Number of allowed turns per kind — the accounting used in §6."""
        counts = {kind: 0 for kind in TurnKind}
        for t in self._flat:
            counts[t.kind] += 1
        return counts

    def channels(self) -> frozenset[Channel]:
        """Every channel class that appears in some turn."""
        out: set[Channel] = set()
        for t in self._flat:
            out.add(t.src)
            out.add(t.dst)
        return frozenset(out)

    def restrict(self, predicate: Callable[[Turn], bool]) -> "TurnSet":
        """A new TurnSet keeping only turns for which ``predicate(turn)`` holds."""
        return TurnSet(
            {
                label: [t for t in turns if predicate(t)]
                for label, turns in self._rules.items()
            }
        )

    def merged_with(self, other: "TurnSet") -> "TurnSet":
        """Union of two turn sets, keeping both provenance maps."""
        rules = dict(self._rules)
        for label, turns in other._rules.items():
            rules[label] = tuple(rules.get(label, ())) + tuple(turns)
        return TurnSet(rules)

    def describe(self) -> str:
        """Multi-line report in the style of Figure 8."""
        lines: list[str] = []
        for label, turns in self._rules.items():
            if not turns:
                continue
            by_kind: dict[TurnKind, list[Turn]] = {k: [] for k in TurnKind}
            for t in turns:
                by_kind[t.kind].append(t)
            segs = []
            if by_kind[TurnKind.DEGREE90]:
                segs.append("Turns: " + ", ".join(map(str, sorted(by_kind[TurnKind.DEGREE90]))))
            if by_kind[TurnKind.UTURN]:
                segs.append("U-Turns: " + ", ".join(map(str, sorted(by_kind[TurnKind.UTURN]))))
            if by_kind[TurnKind.ITURN]:
                segs.append("I-Turns: " + ", ".join(map(str, sorted(by_kind[TurnKind.ITURN]))))
            lines.append(f"{label}: {{" + "; ".join(segs) + "}")
        return "\n".join(lines)


def turnset_from_strings(specs: Iterable[str], label: str = "explicit") -> TurnSet:
    """Build a TurnSet from ``"X+->Y-"`` strings under a single label."""
    return TurnSet({label: [Turn.parse(s) for s in specs]})
