"""Turn extraction from a partition sequence — the Figure 8 engine.

Given a validated :class:`~repro.core.sequence.PartitionSequence`, this
module computes the full set of allowed turns exactly as the paper does in
Figure 8:

* **Theorem 1** contributes, inside each partition, every ordered pair of
  channels in *different* dimensions (90-degree turns);
* **Theorem 2** contributes, inside each partition, U-/I-turns between
  same-dimension channels taken in ascending numbering order (for the
  dimension holding the complete pair) and all I-turns in single-direction
  dimensions;
* **Theorem 3** contributes every ordered pair from an earlier partition to
  a later one (90-degree, U- and I-turns alike).

The result is a :class:`~repro.core.turns.TurnSet` whose provenance map
reproduces the figure's layout.
"""

from __future__ import annotations


from repro.core.channel import Channel
from repro.core.partition import Partition
from repro.core.sequence import PartitionSequence
from repro.core.theorems import require_sequence, uturn_allowed
from repro.core.turns import Turn, TurnKind, TurnSet


def theorem1_turns(partition: Partition) -> tuple[Turn, ...]:
    """All 90-degree turns available inside one partition.

    >>> [str(t) for t in theorem1_turns(Partition.of("X+ Y-"))]
    ['X+->Y-', 'Y-->X+']
    """
    out: list[Turn] = []
    for src in partition:
        for dst in partition:
            if src.dim != dst.dim:
                out.append(Turn(src, dst))
    return tuple(out)


def theorem2_turns(partition: Partition) -> tuple[Turn, ...]:
    """All U-/I-turns permitted inside one partition by Theorem 2."""
    out: list[Turn] = []
    for src in partition:
        for dst in partition:
            if src is not dst and uturn_allowed(partition, src, dst):
                out.append(Turn(src, dst))
    return tuple(out)


def theorem3_turns(earlier: Partition, later: Partition) -> tuple[Turn, ...]:
    """All transitions from an earlier partition into a later one."""
    return tuple(Turn(src, dst) for src in earlier for dst in later)


def extract_turns(
    sequence: PartitionSequence,
    *,
    transitions: str = "all",
    validate: bool = True,
) -> TurnSet:
    """Compile a partition sequence into its full allowed-turn set.

    Parameters
    ----------
    sequence:
        The EbDa design.  Validated against Theorems 1 and 3 unless
        ``validate=False``.
    transitions:
        ``"all"`` allows transitions from every partition to every later
        one (corollary of Theorem 3); ``"consecutive"`` restricts to
        adjacent partitions only (a designer may prefer this to shrink the
        turn table; it is strictly safe since it is a subset).

    Returns
    -------
    TurnSet
        Provenance labels follow Figure 8: ``"Theorem1 in PA"``,
        ``"Theorem2 in PA"``, ``"Theorem3 PA->PB"``.
    """
    if validate:
        require_sequence(sequence)
    if transitions not in ("all", "consecutive"):
        raise ValueError(f"transitions must be 'all' or 'consecutive', got {transitions!r}")

    rules: dict[str, tuple[Turn, ...]] = {}
    parts = sequence.partitions
    for part in parts:
        label = part.name or "?"
        rules[f"Theorem1 in {label}"] = theorem1_turns(part)
        rules[f"Theorem2 in {label}"] = theorem2_turns(part)
    for i, earlier in enumerate(parts):
        laters = parts[i + 1: i + 2] if transitions == "consecutive" else parts[i + 1:]
        for later in laters:
            rules[f"Theorem3 {earlier.name or '?'}->{later.name or '?'}"] = theorem3_turns(
                earlier, later
            )
    return TurnSet(rules)


def degree90_turns(
    sequence: PartitionSequence,
    *,
    transitions: str = "all",
    validate: bool = True,
) -> tuple[Turn, ...]:
    """Only the 90-degree turns of the compiled design (Tables 4-5 style)."""
    turnset = extract_turns(sequence, transitions=transitions, validate=validate)
    return turnset.of_kind(TurnKind.DEGREE90)


def injection_channels(sequence: PartitionSequence) -> tuple[Channel, ...]:
    """Channels a freshly injected packet may take (all of them).

    Injection has no previous channel, so no turn restriction applies; the
    sequence's full channel inventory is available at the source router.
    """
    return sequence.all_channels
