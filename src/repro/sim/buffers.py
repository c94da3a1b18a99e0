"""Per-wire buffer and ownership state.

Each :class:`~repro.topology.wires.Wire` (one VC on one link) owns one
FIFO input buffer at its downstream router plus a wormhole ownership slot.
Ownership marks the packet that won virtual-channel allocation for the
wire; its release point distinguishes the two buffer disciplines:

* **relaxed** (EbDa, default) — released when the tail flit *enters* the
  buffer: several packets may queue in one buffer back to back;
* **atomic** (Duato's Assumption 3) — released when the tail flit *leaves*
  the buffer: a buffer holds flits of at most one packet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.routing.packet import Flit
from repro.topology.wires import Wire


@dataclass
class WireState:
    """Runtime state of one wire."""

    wire: Wire
    capacity: int
    buffer: deque[Flit] = field(default_factory=deque)
    #: Arrival cycle of each buffered flit (parallel to ``buffer``), used
    #: to model the router pipeline depth.
    arrivals: deque[int] = field(default_factory=deque)
    #: Packet currently holding VC allocation on this wire (None = free).
    owner: int | None = None
    #: Total flits that ever entered this wire (utilization accounting).
    flits_carried: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise SimulationError("buffers need capacity >= 1")

    @property
    def free_slots(self) -> int:
        """Space available for arriving flits."""
        return self.capacity - len(self.buffer)

    @property
    def occupancy(self) -> int:
        return len(self.buffer)

    def front(self) -> Flit | None:
        """The flit at the head of the FIFO, if any."""
        return self.buffer[0] if self.buffer else None

    def push(self, flit: Flit, cycle: int = 0) -> None:
        """Accept an arriving flit (caller checked space)."""
        if self.free_slots <= 0:
            raise SimulationError(f"buffer overflow on {self.wire}")
        self.buffer.append(flit)
        self.arrivals.append(cycle)
        self.flits_carried += 1

    def pop(self) -> Flit:
        """Remove and return the front flit."""
        if not self.buffer:
            raise SimulationError(f"pop from empty buffer on {self.wire}")
        self.arrivals.popleft()
        return self.buffer.popleft()

    def front_ready(self, cycle: int, pipeline_delay: int) -> bool:
        """Has the front flit finished the router pipeline?

        A flit arriving in cycle ``t`` may depart in cycle
        ``t + 1 + pipeline_delay`` at the earliest (one cycle of link
        traversal plus the configured pipeline depth).
        """
        if not self.buffer:
            return False
        return cycle >= self.arrivals[0] + 1 + pipeline_delay

    def packets_present(self) -> tuple[int, ...]:
        """Distinct packet ids currently buffered, front to back."""
        seen: list[int] = []
        for flit in self.buffer:
            if flit.pid not in seen:
                seen.append(flit.pid)
        return tuple(seen)
