"""Catalog of the paper's named designs (Sections 4 and 6).

Every partitioning option the paper writes out explicitly is available
here as a constructor returning a validated
:class:`~repro.core.sequence.PartitionSequence`:

* the five Section-4 options P1..P5 (Figure 6);
* Tables 1, 2 and 3 of Section 6.1;
* the Odd-Even design (Figure 10 / Table 4) using even/odd column classes;
* the Hamiltonian-path design (§6.2) using even/odd row classes;
* the partial-3D design of §6.3 (Table 5) and the 2D/3D minimal designs.

These are the ground-truth inputs for the benchmark harness.
"""

from __future__ import annotations

from repro.core.minimal import minimal_fully_adaptive
from repro.core.sequence import PartitionSequence


def _seq(text: str) -> PartitionSequence:
    return PartitionSequence.parse(text).validate()


# ---------------------------------------------------------------------------
# Section 4 / Figure 6 — the five partitioning forms P1..P5
# ---------------------------------------------------------------------------

def p1_xy() -> PartitionSequence:
    """P1: four singleton partitions — the XY routing algorithm (Fig. 6a)."""
    return _seq("X+ -> X- -> Y+ -> Y-")


def p2_partially_adaptive() -> PartitionSequence:
    """P2: three partitions — fully adaptive in NE only (Fig. 6b)."""
    return _seq("Y- -> X- -> Y+ X+")


def p3_west_first() -> PartitionSequence:
    """P3: the west-first turn model (Fig. 6c)."""
    return _seq("X- -> X+ Y+ Y-")


def p4_negative_first() -> PartitionSequence:
    """P4: the negative-first turn model (Fig. 6d)."""
    return _seq("X- Y- -> X+ Y+")


def p5_west_first_vcs() -> PartitionSequence:
    """P5: west-first with extra Y VCs inside PB (Fig. 6e).

    Adds identical turns and U-/I-turns but no extra minimal adaptivity.
    """
    return _seq("X- -> X+ Y+ Y- Y2+ Y2-")


def north_last() -> PartitionSequence:
    """The north-last turn model as derived in the Theorem 3 example (Fig. 5)."""
    return _seq("X+ X- Y- -> Y+")


# ---------------------------------------------------------------------------
# Section 6.1 — Tables 1, 2 and 3
# ---------------------------------------------------------------------------

#: Entries of Table 1 in reading order (columns left to right, rows top to
#: bottom).  Each guarantees maximum adaptiveness for 4 channels in 2D.
_TABLE1 = (
    "X+ X- Y+ -> Y-", "Y+ Y- X+ -> X-", "X+ Y+ -> X- Y-",
    "X+ X- Y- -> Y+", "Y+ Y- X- -> X+", "X+ Y- -> X- Y+",
    "Y- -> X+ X- Y+", "X- -> Y+ Y- X+", "X- Y- -> X+ Y+",
    "Y+ -> X+ X- Y-", "X+ -> Y+ Y- X-", "X- Y+ -> X+ Y-",
)

#: Table 1 entries the paper highlights as the three unique turn models.
TABLE1_HIGHLIGHTED = {
    "north-last": "X+ X- Y- -> Y+",
    "west-first": "X- -> Y+ Y- X+",
    "negative-first": "X- Y- -> X+ Y+",
}

_TABLE2 = (
    "X+ Y+ -> X- -> Y-", "X+ Y- -> X- -> Y+",
    "X- Y+ -> X+ -> Y-", "X- Y- -> X+ -> Y+",
)

_TABLE3 = (
    "X+ -> Y+ -> X- -> Y-", "X+ -> Y- -> X- -> Y+",
    "X- -> Y+ -> X+ -> Y-", "X- -> Y- -> X+ -> Y+",
    "X+ -> X- -> Y+ -> Y-", "Y+ -> Y- -> X+ -> X-",
)


def table1_options() -> tuple[PartitionSequence, ...]:
    """The 12 maximum-adaptiveness partitioning options of Table 1."""
    return tuple(_seq(t) for t in _TABLE1)


def table2_options() -> tuple[PartitionSequence, ...]:
    """The four three-partition options of Table 2."""
    return tuple(_seq(t) for t in _TABLE2)


def table3_options() -> tuple[PartitionSequence, ...]:
    """The six deterministic partitioning options of Table 3."""
    return tuple(_seq(t) for t in _TABLE3)


# ---------------------------------------------------------------------------
# Section 6.2 — Odd-Even and Hamiltonian-path designs
# ---------------------------------------------------------------------------

def odd_even_partitions() -> PartitionSequence:
    """The Odd-Even turn model as two partitions (Fig. 10b).

    ``PA = {X-  Ye*}`` and ``PB = {X+  Yo*}`` where ``Ye``/``Yo`` are the Y
    channels of even/odd columns.  Column parity is a spatial class; the
    topology layer binds class ``e``/``o`` to the X coordinate.
    """
    return PartitionSequence.of("X- Y+@e Y-@e", "X+ Y+@o Y-@o").validate()


def hamiltonian_partitions() -> PartitionSequence:
    """The Hamiltonian-path strategy as two partitions (§6.2).

    ``PA = {Xe+ Xo- Y+}``, ``PB = {Xe- Xo+ Y-}`` with X channels classed by
    row parity (the Hamiltonian snake traverses rows alternately).
    """
    return PartitionSequence.of("X+@e X-@o Y+", "X-@e X+@o Y-").validate()


# ---------------------------------------------------------------------------
# Section 6.3 — vertically partially connected 3D design (Table 5)
# ---------------------------------------------------------------------------

def partial3d_partitions() -> PartitionSequence:
    """The §6.3 design: ``PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]``.

    Uses 1, 2 and 1 VCs along X, Y and Z (vs Elevator-First's 2, 2, 1)
    while allowing 30 90-degree turns (vs 16).
    """
    return PartitionSequence.of("X+ Y+ Y- Z+", "X- Y2+ Y2- Z-").validate()


# ---------------------------------------------------------------------------
# Section 4 minimal designs, re-exported with their paper names
# ---------------------------------------------------------------------------

def dyxy_partitions() -> PartitionSequence:
    """Figure 7(b): the 6-channel 2D fully adaptive design (DyXY)."""
    return minimal_fully_adaptive(2, pair_dim=1)


def fig7c_partitions() -> PartitionSequence:
    """Figure 7(c): the alternative 6-channel design pairing X."""
    return minimal_fully_adaptive(2, pair_dim=0)


def fig9b_partitions() -> PartitionSequence:
    """Figure 9(b): 3D minimal design with 2, 2, 4 VCs (pairs along Z)."""
    return minimal_fully_adaptive(3, pair_dim=2)


def fig9c_partitions() -> PartitionSequence:
    """Figure 9(c): 3D minimal design with 3, 2, 3 VCs.

    Built by the paper's worked §5 example: the first two partitions pair
    Z, the last two pair X; Y contributes single channels throughout.
    """
    return PartitionSequence.of(
        "Z+ Z- X+ Y+",
        "Z2+ Z2- X- Y2+",
        "X2+ X2- Z3+ Y-",
        "X3+ X3- Z3- Y2-",
    ).validate()


# ---------------------------------------------------------------------------
# Beyond-mesh designs used by the arbitrary-network fuzzing families
# ---------------------------------------------------------------------------

def dragonfly_minimal() -> PartitionSequence:
    """Minimal dragonfly routing: local, global, then a second local VC.

    Channels are classed ``l`` (intra-group) and ``g`` (inter-group) by the
    topology layer; the ascending VC on the second local hop breaks the
    l -> g -> l dependency cycle exactly as the classic minimal scheme does.
    """
    return _seq("X+@l -> Y+@g -> X2+@l")


def dragonfly_valiant() -> PartitionSequence:
    """Valiant-style dragonfly routing via an intermediate group.

    Two global hops (to the random intermediate group, then to the
    destination group) each followed by a fresh local VC; VC numbers
    ascend along any l-g-l-g-l path so the design is deadlock-free.
    """
    return _seq("X+@l -> Y+@g -> X2+@l -> Y2+@g -> X3+@l")


def fattree_updown() -> PartitionSequence:
    """Up*/down* routing on a fat-tree: all up hops, then all down hops.

    Channels are classed ``u``/``d`` by link direction; forbidding
    up-after-down makes every route a single up-phase/down-phase pair.
    """
    return _seq("X+@u -> X-@d")


#: Name -> constructor map for tooling (examples, CLI-style sweeps).
NAMED_DESIGNS = {
    "xy": p1_xy,
    "partially-adaptive": p2_partially_adaptive,
    "west-first": p3_west_first,
    "negative-first": p4_negative_first,
    "west-first-vcs": p5_west_first_vcs,
    "north-last": north_last,
    "odd-even": odd_even_partitions,
    "hamiltonian": hamiltonian_partitions,
    "partial3d": partial3d_partitions,
    "dyxy": dyxy_partitions,
    "fig7c": fig7c_partitions,
    "fig9b": fig9b_partitions,
    "fig9c": fig9c_partitions,
    "dragonfly-minimal": dragonfly_minimal,
    "dragonfly-valiant": dragonfly_valiant,
    "fattree-updown": fattree_updown,
}


def design(name: str) -> PartitionSequence:
    """Look up a named design.

    >>> design("north-last").arrow_notation()
    'X+ X- Y- -> Y+'
    """
    try:
        return NAMED_DESIGNS[name]()
    except KeyError:
        known = ", ".join(sorted(NAMED_DESIGNS))
        raise KeyError(f"unknown design {name!r}; known designs: {known}") from None


def resolve_design(text: str, *, validate: bool = True) -> tuple[PartitionSequence, str]:
    """A catalog name or arrow notation -> ``(design, catalog name or "")``.

    The name picks the class rule (``rule_for_design``); ``validate=False``
    skips the theorem check, for the linter, which reports violations.
    """
    if text in NAMED_DESIGNS:
        return design(text), text
    sequence = PartitionSequence.parse(text)
    return (sequence.validate() if validate else sequence), ""
