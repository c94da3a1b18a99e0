"""The lint rule catalog: ~10 structural checks grounded in the paper.

Every rule is a generator over one :class:`~repro.analyze.unit.DesignUnit`
registered under a stable ``EBDA0xx`` ID.  None of them instantiate a
concrete channel dependency graph or run the simulator — they reason over
channel classes, the turn relation, and (for the topology-aware rules)
raw link structure:

======== ======== ==========================================================
ID       severity check
======== ======== ==========================================================
EBDA001  error    partition covers >1 complete D-pair (Theorem 1)
EBDA002  error    U-/I-turn breaks the ascending numbering (Theorem 2)
EBDA003  error    backward inter-partition turn / overlap (Theorem 3)
EBDA004  error    turn references a channel outside the design
EBDA005  error    unbroken torus wrap ring (Theorem 2 torus remark)
EBDA006  warning  dead channel class: no turn enters or leaves it
EBDA007  warning  phantom class: never instantiated under the class rule
EBDA008  error    static unroutability: a direction requirement has no
                  turn-closed path
EBDA009  error    full adaptivity claimed below the (n+1)*2^(n-1) channel
                  minimum (Section 4)
EBDA010  note     adaptive design lacks turn-level escape coverage
                  (deliverability relies on lookahead routing)
EBDA011  note     non-consecutive forward transition (opt-in; Theorem 3
                  states consecutive order, skipping is a safe corollary)
EBDA012  error    dragonfly global-channel dependency loop (the global-
                  graph analogue of the wrap-ring rule)
======== ======== ==========================================================

Rules EBDA001—EBDA005 consume the *same* structured violation streams as
the fuzzer's theorem oracle (:func:`repro.core.theorems.sequence_violations`
/ :func:`turn_violations` and :func:`repro.analyze.rings.unbroken_wrap_rings`),
so the static verdict and the theorem verdict agree by construction — the
property the four-way differential fuzz gate checks on every trial.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.analyze.diagnostics import Diagnostic, Location, Severity, register_rule
from repro.analyze.rings import unbroken_rings
from repro.analyze.unit import DesignUnit, Direction, requirement_sets
from repro.cdg.cycles import strongly_connected_components
from repro.core.channel import NEG, POS, Channel, dim_name
from repro.core.minimal import min_channels
from repro.core.regions import covers_all_regions
from repro.core.theorems import (
    VIOLATION_RULES,
    Violation,
    sequence_violations,
    turn_violations,
)
from repro.topology.dragonfly import GLOBAL_DIM, Dragonfly

__all__ = ["THEOREM_MIRROR_RULES"]

#: The rules that mirror the fuzzer's theorem oracle one-to-one: an
#: error from any of these must coincide exactly with a theorem-oracle
#: rejection (checked by the differential fuzzer on every trial).
THEOREM_MIRROR_RULES = ("EBDA001", "EBDA002", "EBDA003", "EBDA004", "EBDA005")

def _dir_name(d: Direction) -> str:
    return f"{dim_name(d[0])}{'+' if d[1] == POS else '-'}"


def _dir_names(dirs: Iterable[Direction]) -> str:
    return " ".join(_dir_name(d) for d in sorted(dirs))


def _partition_location(unit: DesignUnit, violation: Violation) -> Location:
    idx = violation.partition
    name = ""
    if idx is not None and 0 <= idx < len(unit.sequence):
        name = unit.sequence[idx].name
    return Location(
        partition=idx,
        partition_name=name,
        turn=str(violation.turn) if violation.turn is not None else "",
    )


# ---------------------------------------------------------------------------
# EBDA001—EBDA004: the theorem mirrors (shared violation streams)
# ---------------------------------------------------------------------------

@register_rule(
    "EBDA001",
    "partition covers more than one complete D-pair",
    Severity.ERROR,
    "Theorem 1",
)
def ebda001(unit: DesignUnit) -> Iterator[Diagnostic]:
    """A partition is cycle-free iff it covers at most one complete D-pair."""
    for v in sequence_violations(unit.sequence):
        if VIOLATION_RULES[v.code] != "EBDA001":
            continue
        yield Diagnostic(
            "EBDA001",
            Severity.ERROR,
            v.message,
            _partition_location(unit, v),
            hint="split the partition so at most one dimension keeps both"
            " directions (Theorem 1)",
        )


@register_rule(
    "EBDA002",
    "U-/I-turn breaks the ascending numbering",
    Severity.ERROR,
    "Theorem 2",
)
def ebda002(unit: DesignUnit) -> Iterator[Diagnostic]:
    """Same-dimension turns must follow the partition's ascending numbering."""
    for v in turn_violations(unit.sequence, sorted(unit.turnset.turns)):
        if VIOLATION_RULES[v.code] != "EBDA002":
            continue
        yield Diagnostic(
            "EBDA002",
            Severity.ERROR,
            v.message,
            _partition_location(unit, v),
            hint="renumber the dimension's channels or drop the descending"
            " turn; Theorem 2 admits any single ascending order",
        )


@register_rule(
    "EBDA003",
    "partition order violated (backward transition or overlap)",
    Severity.ERROR,
    "Theorem 3",
)
def ebda003(unit: DesignUnit) -> Iterator[Diagnostic]:
    """Inter-partition transitions must ascend over disjoint partitions."""
    stream = sequence_violations(unit.sequence) + turn_violations(
        unit.sequence, sorted(unit.turnset.turns)
    )
    for v in stream:
        if VIOLATION_RULES[v.code] != "EBDA003":
            continue
        yield Diagnostic(
            "EBDA003",
            Severity.ERROR,
            v.message,
            _partition_location(unit, v),
            hint="reorder the sequence so every transition ascends, or"
            " remove the backward turn (Theorem 3)",
        )


@register_rule(
    "EBDA004",
    "turn references a channel outside the design",
    Severity.ERROR,
    "Theorem 3 / Definition 6",
)
def ebda004(unit: DesignUnit) -> Iterator[Diagnostic]:
    """Every granted turn must connect two channels some partition covers."""
    for v in turn_violations(unit.sequence, sorted(unit.turnset.turns)):
        if VIOLATION_RULES[v.code] != "EBDA004":
            continue
        yield Diagnostic(
            "EBDA004",
            Severity.ERROR,
            v.message,
            Location(turn=str(v.turn) if v.turn is not None else ""),
            hint="add the channel to a partition or drop the turn",
        )


# ---------------------------------------------------------------------------
# EBDA005: wrap-ring closure (topology-aware)
# ---------------------------------------------------------------------------

@register_rule(
    "EBDA005",
    "unbroken torus wrap ring",
    Severity.ERROR,
    "Theorem 2, torus remark",
    requires_topology=True,
)
def ebda005(unit: DesignUnit) -> Iterator[Diagnostic]:
    """Every unidirectional wrap ring needs a one-way class switch.

    A 4x4x4 torus has 16 rings per direction; findings aggregate per
    (dim, sign) so one broken direction is one diagnostic, not sixteen.
    """
    assert unit.topology is not None
    grouped: dict[Direction, list[str]] = {}
    for ring in unbroken_rings(unit.topology, unit.channels, unit.turnset, unit.rule):
        first = ring[0]
        grouped.setdefault((first.dim, first.sign), []).append(str(first.src))
    for (dim, sign), starts in sorted(grouped.items()):
        yield Diagnostic(
            "EBDA005",
            Severity.ERROR,
            f"{len(starts)} wrap ring(s) along {_dir_name((dim, sign))} are"
            f" unbroken (a closed class walk exists, e.g. through"
            f" {starts[0]}): a packet can chase its own tail end-around",
            Location(channel=_dir_name((dim, sign))),
            hint="break the ring with a dateline: split its channels into"
            " pre-/post-dateline classes with a one-way switch on the"
            " wrap link",
        )


# ---------------------------------------------------------------------------
# EBDA006/EBDA007: dead and phantom channel classes
# ---------------------------------------------------------------------------

@register_rule(
    "EBDA006",
    "dead channel class",
    Severity.WARNING,
    "Definition 2",
)
def ebda006(unit: DesignUnit) -> Iterator[Diagnostic]:
    """A channel no turn enters or leaves is isolated in the abstract graph.

    Packets may still inject onto it, but can then serve only routes that
    never leave its dimension — in a multi-channel design that is almost
    always a leftover from an edit (the fuzzer's ``drop-channel`` mutants
    produce exactly this shape).
    """
    if len(unit.channels) <= 1:
        return
    touched: set[Channel] = set()
    for t in unit.turnset.turns:
        touched.add(t.src)
        touched.add(t.dst)
    for i, part in enumerate(unit.sequence):
        for ch in part:
            if ch not in touched:
                yield Diagnostic(
                    "EBDA006",
                    Severity.WARNING,
                    f"channel {ch} participates in no turn: packets entering"
                    " it can never change dimension or class",
                    Location(partition=i, partition_name=part.name, channel=str(ch)),
                    hint="remove the channel or grant turns connecting it",
                )


@register_rule(
    "EBDA007",
    "phantom channel class",
    Severity.WARNING,
    "Definition 6",
    requires_topology=True,
)
def ebda007(unit: DesignUnit) -> Iterator[Diagnostic]:
    """A channel whose spatial class the rule never produces is never
    instantiated on any link — and every turn referencing it is dead."""
    topology = unit.topology
    assert topology is not None
    tags: dict[Direction, set[str]] = {}
    for link in topology.links:
        tags.setdefault((link.dim, link.sign), set()).add(unit.rule(link))
    for i, part in enumerate(unit.sequence):
        for ch in part:
            produced = tags.get((ch.dim, ch.sign))
            if produced is None:
                reason = (
                    f"the topology has no {_dir_name((ch.dim, ch.sign))} links"
                )
            elif ch.cls not in produced:
                reason = (
                    f"the class rule never tags a {_dir_name((ch.dim, ch.sign))}"
                    f" link with {ch.cls!r} (it produces"
                    f" {sorted(produced)!r})"
                )
            else:
                continue
            dead_turns = sum(
                1 for t in unit.turnset.turns if ch in (t.src, t.dst)
            )
            yield Diagnostic(
                "EBDA007",
                Severity.WARNING,
                f"channel {ch} is never instantiated: {reason};"
                f" {dead_turns} turn(s) referencing it can never be taken",
                Location(partition=i, partition_name=part.name, channel=str(ch)),
                hint="fix the channel's spatial class to one the rule"
                " produces, or lint with the intended class rule",
            )


# ---------------------------------------------------------------------------
# EBDA008/EBDA010: class-level routability
# ---------------------------------------------------------------------------

@register_rule(
    "EBDA008",
    "static unroutability",
    Severity.ERROR,
    "Section 5 (connectivity)",
)
def ebda008(unit: DesignUnit) -> Iterator[Diagnostic]:
    """Every src→dst class pair needs a turn-closed path.

    First checks every direction has a providing channel, then checks
    every per-dimension direction requirement admits some serving order.
    Only minimal failing requirements are reported (a superset of a
    failing requirement always fails too).

    With a concrete topology bound, requirements are restricted to the
    directions its links actually realise: a dragonfly has no negative
    links at all, so demanding ``X-`` coverage there would be a false
    positive, not a connectivity gap.
    """
    topo_dirs: set[Direction] | None = None
    if unit.topology is not None:
        topo_dirs = {(l.dim, l.sign) for l in unit.topology.links}
    missing = False
    for d in unit.dims:
        for sign in (POS, NEG):
            if topo_dirs is not None and (d, sign) not in topo_dirs:
                continue
            if (d, sign) not in unit.directions:
                missing = True
                yield Diagnostic(
                    "EBDA008",
                    Severity.ERROR,
                    f"no channel provides movement along"
                    f" {_dir_name((d, sign))}: any route needing it is"
                    " unservable",
                    Location(channel=_dir_name((d, sign))),
                    hint="add a channel for the direction (every dimension"
                    " of a mesh needs both signs)",
                )
    if missing:
        return
    failed: list[frozenset[Direction]] = []
    for need in sorted(requirement_sets(unit.dims), key=lambda s: (len(s), _dir_names(s))):
        if topo_dirs is not None and not need <= topo_dirs:
            continue
        if any(f <= need for f in failed):
            continue
        if None not in unit.completions[need]:
            failed.append(need)
            yield Diagnostic(
                "EBDA008",
                Severity.ERROR,
                f"no turn-closed path serves a route needing directions"
                f" {{{_dir_names(need)}}}: no ordering of these movements"
                " is connected by allowed turns",
                Location(),
                hint="grant turns (or reorder partitions) so some ordering"
                " of the required directions becomes turn-connected",
            )


@register_rule(
    "EBDA009",
    "full adaptivity claimed below the channel minimum",
    Severity.ERROR,
    "Section 4",
)
def ebda009(unit: DesignUnit) -> Iterator[Diagnostic]:
    """Full adaptivity in n dimensions needs (n+1)*2^(n-1) channels."""
    if not unit.claims_fully_adaptive:
        return
    n = len(unit.dims)
    if n < 1:
        return
    needed = min_channels(n)
    have = len(unit.channels)
    if have < needed:
        yield Diagnostic(
            "EBDA009",
            Severity.ERROR,
            f"design claims full adaptivity in {n}D with {have} channels;"
            f" the Section-4 minimum is (n+1)*2^(n-1) = {needed}",
            Location(),
            hint=f"add channels up to {needed} (e.g. the minimal"
            " construction of Section 4) or drop the claim",
        )
    elif not covers_all_regions(unit.sequence, n):
        yield Diagnostic(
            "EBDA009",
            Severity.WARNING,
            f"design claims full adaptivity but no single partition covers"
            f" every region of the {n}D space (Section 4's structural"
            " criterion)",
            Location(),
            hint="check the region assignment with"
            " repro.core.minimal.region_assignment",
        )


@register_rule(
    "EBDA010",
    "missing escape coverage for an adaptive design",
    Severity.NOTE,
    "Section 5.4 (routing logic)",
)
def ebda010(unit: DesignUnit) -> Iterator[Diagnostic]:
    """Adaptive designs can strand greedy routers without escape coverage.

    For an adaptive design, find (channel, pending directions) states a
    packet can legally enter but never complete: the route exists from
    injection (so EBDA008 stays quiet) yet turn legality alone cannot
    finish it once the packet is on that channel.  Deliverability then
    relies on lookahead (reachability-filtered) routing or escape-channel
    selection — worth knowing, not an error (TurnTableRouting implements
    the lookahead).
    """
    adaptive = any(
        len({ch.dim for ch in part}) > 1 for part in unit.sequence
    ) or any(
        len(unit.channels_of_direction(d, s)) > 1 for (d, s) in unit.directions
    )
    if not adaptive:
        return
    for ch in unit.channels:
        other_dims = tuple(d for d in unit.dims if d != ch.dim)
        if not other_dims:
            continue
        reported = False
        for need in sorted(
            requirement_sets(other_dims), key=lambda s: (len(s), _dir_names(s))
        ):
            if reported:
                break
            if not all(d in unit.directions for d in need):
                continue
            full = need | {(ch.dim, ch.sign)}
            if None not in unit.completions[full]:
                continue  # globally unroutable: EBDA008's business
            if ch not in unit.completions[need]:
                reported = True
                yield Diagnostic(
                    "EBDA010",
                    Severity.NOTE,
                    f"a packet that enters {ch} while still needing"
                    f" {{{_dir_names(need)}}} has no turn-legal completion;"
                    " deliverability relies on lookahead routing or escape"
                    " channels",
                    Location(
                        partition=unit.sequence.partition_index(ch)
                        if unit.sequence.covers(ch)
                        else None,
                        channel=str(ch),
                    ),
                    hint="fine with reachability-filtered routing"
                    " (TurnTableRouting); a greedy router needs escape"
                    " coverage into a completing class",
                )


# ---------------------------------------------------------------------------
# EBDA011: pedantic consecutive-order check (opt-in)
# ---------------------------------------------------------------------------

@register_rule(
    "EBDA011",
    "non-consecutive forward transition",
    Severity.NOTE,
    "Theorem 3 (consecutive order)",
    default_enabled=False,
)
def ebda011(unit: DesignUnit) -> Iterator[Diagnostic]:
    """Theorem 3 states transitions happen in *consecutive* ascending order;
    skipping partitions is a safe corollary but some designers want the
    paper's literal form (extract with ``transitions="consecutive"``)."""
    seen: set[tuple[int, int]] = set()
    for t in sorted(unit.turnset.turns):
        if not (unit.sequence.covers(t.src) and unit.sequence.covers(t.dst)):
            continue
        src_idx = unit.sequence.partition_index(t.src)
        dst_idx = unit.sequence.partition_index(t.dst)
        if dst_idx > src_idx + 1 and (src_idx, dst_idx) not in seen:
            seen.add((src_idx, dst_idx))
            yield Diagnostic(
                "EBDA011",
                Severity.NOTE,
                f"turns skip from partition {src_idx} directly to partition"
                f" {dst_idx}; the paper's Theorem 3 statement uses"
                " consecutive transitions (skipping is a safe corollary)",
                Location(partition=src_idx, turn=str(t)),
                hint='extract turns with transitions="consecutive" for the'
                " literal Theorem-3 form",
            )


# ---------------------------------------------------------------------------
# EBDA012: dragonfly global-channel loops (topology-aware)
# ---------------------------------------------------------------------------

@register_rule(
    "EBDA012",
    "dragonfly global-channel dependency loop",
    Severity.ERROR,
    "Section 3.1 (dragonfly), Theorem 3 analogue",
    requires_topology=True,
)
def ebda012(unit: DesignUnit) -> Iterator[Diagnostic]:
    """The global graph's analogue of the wrap-ring rule (EBDA005).

    A dragonfly has no torus rings — its deadlock geometry lives in the
    *global* graph: every pair of groups is one global link, so any cycle
    of phase classes that passes through a global channel lets packets in
    different groups hold local buffers while waiting for each other's
    global hop, the classic dragonfly credit loop (the reason canonical
    designs order their phases ``L1 -> G -> L2``).

    The check builds the digraph of instantiable channel classes connected
    by granted turns between *distinct* classes and reports every cyclic
    component containing a global channel.  Straight-through (same-class)
    steps are excluded: on a canonical dragonfly each phase is a single
    hop — the local graph is complete and each route has one global hop —
    so a class never feeds itself.  That premise is exactly why the
    generic wrap-ring rule (which must assume arbitrary-length rings)
    stays disabled for dragonfly lints.
    """
    topology = unit.topology
    if not isinstance(topology, Dragonfly):
        return
    produced: dict[Direction, set[str]] = {}
    for link in topology.links:
        produced.setdefault((link.dim, link.sign), set()).add(unit.rule(link))
    instantiable = [
        ch
        for ch in unit.channels
        if ch.cls in produced.get((ch.dim, ch.sign), set())
    ]
    succ = {
        a: [b for b in instantiable if a != b and unit.turnset.allows(a, b)]
        for a in instantiable
    }
    for component in strongly_connected_components(succ):
        if len(component) < 2:
            continue
        loop = sorted(component)
        global_channels = [ch for ch in loop if ch.dim == GLOBAL_DIM]
        if not global_channels:
            continue
        names = " ".join(str(ch) for ch in loop)
        yield Diagnostic(
            "EBDA012",
            Severity.ERROR,
            f"channel classes {{{names}}} form a dependency loop through"
            f" global channel {global_channels[0]}: groups can hold local"
            " buffers while waiting on each other's global hop",
            Location(channel=str(global_channels[0])),
            hint="order the phase classes so no turn re-enters an earlier"
            " phase through a global channel (canonical dragonfly designs"
            " use L1 -> G -> L2)",
        )
