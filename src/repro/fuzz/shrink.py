"""Delta-debugging for fuzz designs: minimise while preserving a predicate.

:func:`shrink` greedily walks a disagreeing design down to a tiny witness:
at each step it proposes a deterministic list of structurally smaller
candidates (drop a mutation, restore a failed link, drop a partition or
channel, shave a radix, drop a whole dimension, flatten a torus to a
mesh, heal a fully-restored irregular mesh) and takes the first one
that still satisfies the caller's predicate *and* strictly decreases
:meth:`FuzzDesign.size`.  The strict decrease makes termination a
structural fact, not a hope; candidates that fail to even compile are
skipped rather than fatal.

The predicate is usually "the differential oracle still reports the same
disagreement", so the shrunk witness reproduces the original finding —
that is what gets persisted to the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from repro.core.channel import Channel
from repro.core.partition import Partition
from repro.core.sequence import PartitionSequence
from repro.core.turns import Turn
from repro.fuzz.design import FuzzDesign, Mutation

__all__ = ["ShrinkResult", "shrink", "within_witness_bound"]


@dataclass
class ShrinkResult:
    """Outcome of a shrink run."""

    design: FuzzDesign
    steps: int = 0
    #: One human-readable line per accepted move.
    trace: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "design": self.design.to_dict(),
            "steps": self.steps,
            "trace": list(self.trace),
        }


def within_witness_bound(design: FuzzDesign) -> bool:
    """No larger than a 2-ary 2-mesh (the acceptance-criteria bound)."""
    return (
        design.topology_kind == "mesh"
        and len(design.shape) <= 2
        and all(k <= 2 for k in design.shape)
    )


def shrink(
    design: FuzzDesign,
    predicate: Callable[[FuzzDesign], bool],
    *,
    max_steps: int = 64,
) -> ShrinkResult:
    """Greedy fixpoint minimisation of ``design`` under ``predicate``.

    ``predicate(design)`` must already hold on entry; the result is a
    local minimum — no single proposed move both shrinks it further and
    keeps the predicate true.
    """
    current = design
    trace: list[str] = []
    for _ in range(max_steps):
        advanced = False
        for note, candidate in _candidates(current):
            if candidate.size() >= current.size():
                continue
            try:
                ok = predicate(candidate)
            except Exception:  # noqa: BLE001 — a broken candidate is just skipped
                continue
            if ok:
                current = candidate
                trace.append(note)
                advanced = True
                break
        if not advanced:
            break
    return ShrinkResult(design=current, steps=len(trace), trace=tuple(trace))


# -- candidate moves, most aggressive first ---------------------------------


def _candidates(design: FuzzDesign) -> Iterator[tuple[str, FuzzDesign]]:
    yield from _flatten_torus(design)
    yield from _heal_irregular(design)
    yield from _drop_mutations(design)
    yield from _drop_failed_links(design)
    yield from _drop_dimensions(design)
    yield from _drop_partitions(design)
    yield from _drop_channels(design)
    yield from _shave_radices(design)


def _parse_seq(design: FuzzDesign) -> PartitionSequence | None:
    try:
        return design.base_sequence()
    except Exception:  # noqa: BLE001
        return None


def _rebuild(
    design: FuzzDesign,
    parts: list[tuple[str, list[Channel]]],
    mutations: tuple[Mutation, ...],
    **overrides,
) -> FuzzDesign | None:
    """A new design from edited partitions; None when it cannot exist."""
    kept = [(name, chans) for name, chans in parts if chans]
    if not kept:
        return None
    try:
        seq = PartitionSequence(
            tuple(Partition(tuple(chans), name=name) for name, chans in kept)
        )
    except Exception:  # noqa: BLE001 — e.g. duplicate channels after a rewrite
        return None
    try:
        return replace(
            design, sequence=seq.arrow_notation(), mutations=mutations, **overrides
        )
    except Exception:  # noqa: BLE001 — e.g. a family/shape constraint violated
        return None


def _map_mutation(
    mutation: Mutation,
    *,
    chan: Callable[[Channel], Channel | None] | None = None,
    part: Callable[[int], int | None] | None = None,
) -> Mutation | None:
    """Remap a mutation through channel/partition-index transforms.

    Returns ``None`` when the mutation no longer makes sense (its channel
    or partition was eliminated) — the caller then drops it, and the
    predicate decides whether the candidate still disagrees.
    """
    kind = mutation.kind
    partition, src, dst = mutation.partition, mutation.src, mutation.dst
    channels, turn = mutation.channels, mutation.turn
    if part is not None:
        for name, idx in (("partition", partition), ("src", src), ("dst", dst)):
            if idx < 0:
                continue
            mapped = part(idx)
            if mapped is None:
                return None
            if name == "partition":
                partition = mapped
            elif name == "src":
                src = mapped
            else:
                dst = mapped
        if kind == "backward-transition" and src <= dst:
            return None  # no longer backward once indices collapsed
    if chan is not None and channels:
        mapped_specs = []
        for spec in channels.split():
            ch = chan(Channel.parse(spec))
            if ch is None:
                return None
            mapped_specs.append(str(ch))
        channels = " ".join(mapped_specs)
    if chan is not None and turn:
        t = Turn.parse(turn)
        a, b = chan(t.src), chan(t.dst)
        if a is None or b is None or a == b:
            return None
        turn = f"{a}->{b}"
    return Mutation(
        kind, partition=partition, channels=channels, src=src, dst=dst, turn=turn
    )


def _map_all(
    mutations: tuple[Mutation, ...],
    *,
    chan: Callable[[Channel], Channel | None] | None = None,
    part: Callable[[int], int | None] | None = None,
) -> tuple[Mutation, ...]:
    out = []
    for m in mutations:
        mapped = _map_mutation(m, chan=chan, part=part)
        if mapped is not None:
            out.append(mapped)
    return tuple(out)


def _flatten_torus(design: FuzzDesign) -> Iterator[tuple[str, FuzzDesign]]:
    """Torus → mesh of the same shape, class tags stripped everywhere."""
    if design.topology_kind != "torus":
        return
    seq = _parse_seq(design)
    if seq is None:
        return

    def strip(ch: Channel) -> Channel:
        return Channel(ch.dim, ch.sign, ch.vc, "")

    parts = [(p.name, [strip(c) for c in p.channels]) for p in seq]
    candidate = _rebuild(
        design,
        parts,
        _map_all(design.mutations, chan=strip),
        topology_kind="mesh",
        rule="none",
    )
    if candidate is not None:
        yield "flatten torus to mesh (strip class tags)", candidate


def _heal_irregular(design: FuzzDesign) -> Iterator[tuple[str, FuzzDesign]]:
    """Irregular mesh with no failures left → a plain mesh."""
    if design.topology_kind != "irregular" or design.failed_links:
        return
    yield "heal irregular mesh (no failures left)", replace(
        design, topology_kind="mesh"
    )


def _drop_mutations(design: FuzzDesign) -> Iterator[tuple[str, FuzzDesign]]:
    for i, m in enumerate(design.mutations):
        rest = design.mutations[:i] + design.mutations[i + 1 :]
        yield f"drop mutation {m.describe()}", replace(design, mutations=rest)


def _drop_failed_links(design: FuzzDesign) -> Iterator[tuple[str, FuzzDesign]]:
    """Restore failed links one at a time (delta-debug the failure set)."""
    for i, pair in enumerate(design.failed_links):
        rest = design.failed_links[:i] + design.failed_links[i + 1 :]
        yield (
            f"restore failed link {pair[0]}-{pair[1]}",
            replace(design, failed_links=rest),
        )


def _drop_dimensions(design: FuzzDesign) -> Iterator[tuple[str, FuzzDesign]]:
    if len(design.shape) <= 1:
        return
    seq = _parse_seq(design)
    if seq is None:
        return
    for dim in range(len(design.shape)):

        def renumber(ch: Channel, dim=dim) -> Channel | None:
            if ch.dim == dim:
                return None
            d = ch.dim - 1 if ch.dim > dim else ch.dim
            return Channel(d, ch.sign, ch.vc, ch.cls)

        parts = []
        for p in seq:
            chans = [renumber(c) for c in p.channels]
            parts.append((p.name, [c for c in chans if c is not None]))
        shape = design.shape[:dim] + design.shape[dim + 1 :]
        candidate = _rebuild(
            design, parts, _map_all(design.mutations, chan=renumber), shape=shape
        )
        if candidate is not None:
            yield f"drop dimension {dim}", candidate


def _drop_partitions(design: FuzzDesign) -> Iterator[tuple[str, FuzzDesign]]:
    seq = _parse_seq(design)
    if seq is None or len(seq) <= 1:
        return
    for i in range(len(seq)):

        def remap(idx: int, i=i) -> int | None:
            if idx == i:
                return None
            return idx - 1 if idx > i else idx

        parts = [
            (p.name, list(p.channels)) for j, p in enumerate(seq) if j != i
        ]
        candidate = _rebuild(
            design, parts, _map_all(design.mutations, part=remap)
        )
        if candidate is not None:
            yield f"drop partition {i}", candidate


def _drop_channels(design: FuzzDesign) -> Iterator[tuple[str, FuzzDesign]]:
    seq = _parse_seq(design)
    if seq is None:
        return
    for i, p in enumerate(seq):
        for ch in p.channels:
            parts = [
                (q.name, [c for c in q.channels if not (j == i and c == ch)])
                for j, q in enumerate(seq)
            ]
            candidate = _rebuild(design, parts, design.mutations)
            if candidate is not None:
                yield f"drop channel {ch} from partition {i}", candidate


#: Per-family minimum radix per shape slot (single value = every slot).
_RADIX_FLOORS = {
    "torus": (3,),
    "dragonfly": (3,),
    "fattree": (2, 1, 1),
    "mesh": (2,),
    "irregular": (2,),
}


def _shave_radices(design: FuzzDesign) -> Iterator[tuple[str, FuzzDesign]]:
    floors = _RADIX_FLOORS[design.topology_kind]
    for dim, k in enumerate(design.shape):
        floor = floors[dim] if dim < len(floors) else floors[-1]
        if k <= floor:
            continue
        shape = design.shape[:dim] + (k - 1,) + design.shape[dim + 1 :]
        try:
            candidate = replace(design, shape=shape)
        except Exception:  # noqa: BLE001 — e.g. failed links now out of range
            continue
        yield f"shave dimension {dim} radix to {k - 1}", candidate
