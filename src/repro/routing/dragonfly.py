"""Minimal dragonfly routing with class-ordered VCs — EbDa beyond meshes.

Minimal dragonfly routes have the shape *local, global, local* (any leg
may be absent).  The classic deadlock-avoidance scheme gives the local
hops before and after the global hop different VCs, which in EbDa terms
is three consecutively ordered partitions over channel classes:

    PA = [L1 (local, VC1)]  ->  PB = [G (global)]  ->  PC = [L2 (local, VC2)]

Transitions only flow forward, each class is used for at most one hop per
route, and the concrete CDG is acyclic.  With a *single* local VC the L
class appears both before and after G, the class order collapses, and
l-g-l chains across groups close dependency cycles — the negative control
:class:`DragonflySingleVC` demonstrates it.
"""

from __future__ import annotations

from repro.core.channel import Channel
from repro.errors import RoutingError
from repro.routing.base import Candidate, RoutingFunction
from repro.topology.base import Coord
from repro.topology.classes import local_global
from repro.topology.dragonfly import GLOBAL_DIM, LOCAL_DIM, Dragonfly

L1 = Channel(LOCAL_DIM, +1, 1, "l")
L2 = Channel(LOCAL_DIM, +1, 2, "l")
G = Channel(GLOBAL_DIM, +1, 1, "g")


#: Class rule: local links tagged ``l``, global links ``g`` (the named
#: rule ``"dragonfly"``).
dragonfly_rule = local_global


class DragonflyRouting(RoutingFunction):
    """Deterministic minimal routing with the L1 -> G -> L2 class order."""

    def __init__(self, topology: Dragonfly) -> None:
        if not isinstance(topology, Dragonfly):
            raise RoutingError("DragonflyRouting needs a Dragonfly topology")
        super().__init__(topology, dragonfly_rule)

    @property
    def channel_classes(self) -> tuple[Channel, ...]:
        return (L1, G, L2)

    @property
    def name(self) -> str:
        return "dragonfly-minimal"

    def _local_class(self, in_channel: Channel | None) -> Channel:
        """L1 before the global hop, L2 after it."""
        if in_channel is not None and (in_channel.cls == "g" or in_channel.vc == 2):
            return L2
        return L1

    def candidates(self, cur: Coord, dst: Coord, in_channel: Channel | None) -> list[Candidate]:
        if cur == dst:
            return []
        topo: Dragonfly = self.topology  # type: ignore[assignment]
        if cur[0] == dst[0]:
            # Local leg (source side uses L1, destination side L2).
            return [(dst, self._local_class(in_channel))]
        gateway = topo.gateway(cur[0], dst[0])
        if cur == gateway:
            return [(topo.global_peer[cur], G)]
        return [(gateway, L1)]


#: Valiant channel classes: the five route legs, strictly ordered.
VL1 = Channel(LOCAL_DIM, +1, 1, "l")
VG1 = Channel(GLOBAL_DIM, +1, 1, "g")
VL2 = Channel(LOCAL_DIM, +1, 2, "l")
VG2 = Channel(GLOBAL_DIM, +1, 2, "g")
VL3 = Channel(LOCAL_DIM, +1, 3, "l")


class DragonflyValiant(RoutingFunction):
    """Valiant (randomised indirect) dragonfly routing, five class legs.

    A packet bounces via a random intermediate group: the route shape is
    *local, global, local, global, local* and each leg gets its own
    channel class — five consecutively ordered partitions
    ``L1 -> G1 -> L2 -> G2 -> L3``, EbDa's ordering discipline at depth
    five.  The intermediate group travels with the packet as a waypoint
    (its gateway router), reusing the simulator's multicast machinery.

    Use :meth:`prepare` to stamp a packet's waypoint before injection.
    """

    def __init__(self, topology: Dragonfly) -> None:
        if not isinstance(topology, Dragonfly):
            raise RoutingError("DragonflyValiant needs a Dragonfly topology")
        super().__init__(topology, dragonfly_rule)

    @property
    def channel_classes(self) -> tuple[Channel, ...]:
        return (VL1, VG1, VL2, VG2, VL3)

    @property
    def name(self) -> str:
        return "dragonfly-valiant"

    def prepare(self, packet, rng) -> None:
        """Choose a random intermediate group and stamp it as a waypoint.

        Direct same-group traffic keeps no waypoint (pure local route).
        """
        topo: Dragonfly = self.topology  # type: ignore[assignment]
        if packet.src[0] == packet.dst[0]:
            return
        choices = [
            g
            for g in range(topo.groups)
            if g not in (packet.src[0], packet.dst[0])
        ]
        mid = rng.choice(choices)
        # The waypoint is the intermediate group's gateway toward the
        # destination group (the router the second global hop leaves from).
        waypoint = topo.gateway(mid, packet.dst[0])
        if waypoint not in (packet.src, packet.dst):
            packet.waypoints = (waypoint,)

    def target_of(self, packet, cur: Coord) -> Coord:
        pending = [w for w in packet.waypoints if w not in packet.copies and w != cur]
        if pending and cur[0] != packet.dst[0]:
            return pending[0]
        return packet.dst

    def _phase(self, in_channel: Channel | None) -> int:
        """Route leg index implied by the arrival class (0, 1 or 2)."""
        if in_channel is None or in_channel == VL1:
            return 0
        if in_channel in (VG1, VL2):
            return 1
        return 2

    def candidates(self, cur: Coord, dst: Coord, in_channel: Channel | None) -> list[Candidate]:
        if cur == dst:
            return []
        topo: Dragonfly = self.topology  # type: ignore[assignment]
        phase = self._phase(in_channel)
        local = (VL1, VL2, VL3)[phase]
        if cur[0] == dst[0]:
            return [(dst, local)]
        if phase >= 2:
            raise RoutingError(
                f"valiant route exhausted its global budget at {cur} -> {dst}"
            )
        glob = (VG1, VG2)[phase]
        gateway = topo.gateway(cur[0], dst[0])
        if cur == gateway:
            return [(topo.global_peer[cur], glob)]
        return [(gateway, local)]


class DragonflySingleVC(RoutingFunction):
    """Negative control: one local VC — the class order collapses."""

    def __init__(self, topology: Dragonfly) -> None:
        if not isinstance(topology, Dragonfly):
            raise RoutingError("DragonflySingleVC needs a Dragonfly topology")
        super().__init__(topology, dragonfly_rule)

    @property
    def channel_classes(self) -> tuple[Channel, ...]:
        return (L1, G)

    @property
    def name(self) -> str:
        return "dragonfly-single-vc"

    def candidates(self, cur: Coord, dst: Coord, in_channel: Channel | None) -> list[Candidate]:
        if cur == dst:
            return []
        topo: Dragonfly = self.topology  # type: ignore[assignment]
        if cur[0] == dst[0]:
            return [(dst, L1)]
        gateway = topo.gateway(cur[0], dst[0])
        if cur == gateway:
            return [(topo.global_peer[cur], G)]
        return [(gateway, L1)]
