"""Wrap-ring closure analysis (the paper's Theorem-2 torus remark).

Class-level theorem checks cannot see *ring closure*: a k-ary n-cube ring
deadlocks even under a single channel class, because the wrap link closes
the dependency chain geometrically.  The paper's remedy — each wrap-around
channel contributes two unidirectional channels plus two U-turns — is
Dally's dateline in EbDa notation.

:func:`unbroken_wrap_rings` walks every unidirectional link ring of a
topology and checks whether the design's class assignment lets a packet
chase its own tail end-around: a cycle in the tiny (position, class)
graph means the ring is *unbroken*.  This is pure link-structure analysis
— O(ring length x classes^2) per ring, no concrete CDG, no simulation —
shared by the static analyzer (rule EBDA005) and the differential
fuzzer's theorem oracle.
"""

from __future__ import annotations

from repro.cdg.cycles import first_cycle
from repro.core.channel import Channel
from repro.core.turns import TurnSet
from repro.topology.base import Coord, Link, Topology
from repro.topology.classes import ClassRule

__all__ = ["link_rings", "unbroken_rings", "unbroken_wrap_rings"]


def unbroken_rings(
    topology: Topology,
    classes: tuple[Channel, ...],
    turnset: TurnSet,
    rule: ClassRule,
) -> list[list[Link]]:
    """Concrete rings a packet class-walk can traverse end-around.

    For each unidirectional ring of links (a closed walk all in one
    (dim, sign)), build the tiny graph of (position, channel) states
    connected by straight-through or allowed same-ring transitions; a
    cycle there means the ring is *unbroken* — some class assignment lets
    a packet chase its own tail around the wrap, which the theorem oracle
    must report as unsafe (dateline's one-way class switch is exactly what
    breaks it).  Meshes have no link rings, so this is vacuous there.
    """
    out: list[list[Link]] = []
    for ring in link_rings(topology):
        k = len(ring)
        states = [instantiable_classes(classes, link, rule) for link in ring]
        succ: dict[tuple[int, Channel], list[tuple[int, Channel]]] = {
            (i, a): [] for i, here in enumerate(states) for a in here
        }
        for i, here in enumerate(states):
            j = (i + 1) % k
            for a in here:
                succ[(i, a)].extend(
                    (j, b) for b in states[j] if a == b or turnset.allows(a, b)
                )
        if first_cycle(succ) is not None:
            out.append(ring)
    return out


def unbroken_wrap_rings(
    topology: Topology,
    classes: tuple[Channel, ...],
    turnset: TurnSet,
    rule: ClassRule,
) -> list[str]:
    """String form of :func:`unbroken_rings`, one line per unbroken ring
    (the shape the fuzzer's theorem oracle reports as violations)."""
    out: list[str] = []
    for ring in unbroken_rings(topology, classes, turnset, rule):
        first = ring[0]
        out.append(
            f"ring dim={first.dim} sign={first.sign:+d} through"
            f" {first.src} is unbroken (closed class walk exists)"
        )
    return out


def instantiable_classes(
    classes: tuple[Channel, ...], link: Link, rule: ClassRule
) -> list[Channel]:
    """The design channels the class rule instantiates on one link."""
    tag = rule(link)
    return [
        c
        for c in classes
        if c.dim == link.dim and c.sign == link.sign and c.cls == tag
    ]


def link_rings(topology: Topology) -> list[list[Link]]:
    """Every closed unidirectional link walk, one per (dim, sign, ring)."""
    by_dir: dict[tuple[int, int], dict[Coord, Link]] = {}
    for link in topology.links:
        by_dir.setdefault((link.dim, link.sign), {})[link.src] = link
    rings: list[list[Link]] = []
    for _direction, nxt in sorted(by_dir.items()):
        visited: set[Coord] = set()
        for start in sorted(nxt):
            if start in visited:
                continue
            walk: list[Link] = []
            node = start
            while node in nxt and node not in visited:
                visited.add(node)
                link = nxt[node]
                walk.append(link)
                node = link.dst
            if walk and node == start:
                rings.append(walk)
    return rings
