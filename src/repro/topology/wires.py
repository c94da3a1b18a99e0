"""Wires: concrete instantiations of design channels on topology links.

A :class:`Wire` is one buffered virtual channel on one physical link — the
unit the channel dependency graph and the simulator operate on.  A design
channel class ``X2+`` instantiates into one wire per ``(dim=0, sign=+1)``
link whose spatial-class tag matches the channel's ``cls``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable

from repro.core.channel import Channel
from repro.errors import TopologyError
from repro.topology.base import Coord, Link, Topology
from repro.topology.classes import ClassRule, no_classes


@dataclass(frozen=True, order=True)
class Wire:
    """One virtual channel on one physical link."""

    link: Link
    channel: Channel
    # Set per instance by __post_init__; ClassVar keeps it out of the fields.
    _hash: ClassVar[int]

    def __post_init__(self) -> None:
        # Hashed once (the dataclass-default value, so set orders do not
        # change): wires are the nodes of every CDG and routing memo.
        object.__setattr__(self, "_hash", hash((self.link, self.channel)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[type[Wire], tuple[Link, Channel]]:
        # Pickle the fields only; the unpickling process hashes afresh.
        return Wire, (self.link, self.channel)

    def __str__(self) -> str:
        return f"{self.channel}@{self.link.src}->{self.link.dst}"

    def order_key(self) -> tuple[Coord, Coord, int, int, int, int, int, str]:
        """The wire order as one flat tuple: ``sorted(ws, key=Wire.order_key)``.

        Equals the dataclass order (the :class:`Link` fields, then the
        :class:`Channel` fields) but compares without building nested
        field tuples on every comparison.
        """
        link, ch = self.link, self.channel
        return (link.src, link.dst, link.dim, link.sign, ch.dim, ch.sign, ch.vc, ch.cls)

    @property
    def src(self) -> Coord:
        return self.link.src

    @property
    def dst(self) -> Coord:
        return self.link.dst


def wires_for(
    topology: Topology,
    channel_classes: Iterable[Channel],
    rule: ClassRule = no_classes,
) -> tuple[Wire, ...]:
    """Instantiate channel classes on every matching link.

    >>> from repro.topology.mesh import Mesh
    >>> from repro.core.channel import channels
    >>> len(wires_for(Mesh(3, 3), channels("X+ X- Y+ Y-")))
    24
    """
    classes = tuple(channel_classes)
    out: list[Wire] = []
    for link in topology.links:
        tag = rule(link)
        for ch in classes:
            if ch.dim == link.dim and ch.sign == link.sign and ch.cls == tag:
                out.append(Wire(link, ch))
    return tuple(out)


def wires_by_link(
    topology: Topology,
    channel_classes: Iterable[Channel],
    rule: ClassRule = no_classes,
) -> dict[Link, tuple[Wire, ...]]:
    """Group instantiated wires per physical link (the link's VC set)."""
    grouped: dict[Link, list[Wire]] = {}
    for wire in wires_for(topology, channel_classes, rule):
        grouped.setdefault(wire.link, []).append(wire)
    return {link: tuple(ws) for link, ws in grouped.items()}


def check_full_instantiation(
    topology: Topology,
    channel_classes: Iterable[Channel],
    rule: ClassRule = no_classes,
) -> None:
    """Raise :class:`TopologyError` when some link carries no wire at all.

    A design that leaves a link without any channel cannot route packets
    over it; detecting this early catches mismatched class rules (e.g. an
    Odd-Even design deployed without the column-parity rule).
    """
    grouped = wires_by_link(topology, channel_classes, rule)
    bare = [link for link in topology.links if link not in grouped]
    if bare:
        sample = ", ".join(str(l) for l in bare[:4])
        raise TopologyError(
            f"{len(bare)} links carry no channel (e.g. {sample}); "
            "check the design's classes against the class rule"
        )
