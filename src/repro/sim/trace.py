"""Simulation tracing: per-event observability for debugging and teaching.

Attach a :class:`Trace` to a :class:`~repro.sim.network.NetworkSimulator`
and every interesting event — injection, VC allocation, flit movement,
ejection, multicast copies, deadlock declaration — is recorded with its
cycle.  :meth:`Trace.timeline` renders one packet's journey:

    #3 (0,0)->(2,1) len=4
      cycle   2: offered at (0, 0)
      cycle   3: VA -> X+@(0, 0)->(1, 0)
      cycle   3: head moves (0, 0) -> (1, 0) [X+]
      ...
      cycle  12: tail ejected at (2, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.routing.packet import Flit, Packet
from repro.store import write_jsonl
from repro.topology.base import Coord
from repro.topology.wires import Wire


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulator event."""

    cycle: int
    #: offered | allocated | moved | ejected | copy | deadlock
    #: | fault | abort | retransmit | recovered | rerouted
    kind: str
    pid: int | None
    detail: str
    #: The node the event lands at (movement target, ejection point...).
    node: Coord | None = None
    #: "head" / "body" / "tail" for flit events.
    role: str = ""

    def __str__(self) -> str:
        who = f"#{self.pid} " if self.pid is not None else ""
        return f"cycle {self.cycle:4d}: {who}{self.detail}"


class Trace:
    """Event recorder; pass as ``tracer=`` to :class:`NetworkSimulator`.

    ``capacity`` bounds memory: past it the oldest ~10% of events are
    evicted in one batch and counted in :attr:`dropped_events`, so
    queries over long runs can tell a complete history from a truncated
    one (:attr:`truncated`, and the warning line :meth:`timeline`
    prepends).
    """

    def __init__(self, capacity: int = 100_000) -> None:
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        #: Events evicted to honour ``capacity`` (0 = complete history).
        self.dropped_events = 0

    @property
    def truncated(self) -> bool:
        """Has any event been evicted?  Timelines may be incomplete."""
        return self.dropped_events > 0

    # -- hooks the simulator calls ---------------------------------------------

    def packet_offered(self, cycle: int, packet: Packet) -> None:
        self._add(
            cycle, "offered", packet.pid,
            f"offered at {packet.src} -> {packet.dst}", node=packet.src,
        )

    def allocated(self, cycle: int, router: Coord, pid: int, wire: Wire) -> None:
        self._add(cycle, "allocated", pid, f"VA at {router} -> {wire}", node=router)

    def flit_moved(self, cycle: int, flit: Flit, source, wire: Wire) -> None:
        role = "head" if flit.is_head else ("tail" if flit.is_tail else "body")
        origin = source.dst if isinstance(source, Wire) else source
        self._add(
            cycle, "moved", flit.pid,
            f"{role} moves {origin} -> {wire.dst} [{wire.channel}]",
            node=wire.dst, role=role,
        )

    def ejected(self, cycle: int, flit: Flit, node: Coord) -> None:
        role = "head" if flit.is_head else ("tail" if flit.is_tail else "body")
        self._add(cycle, "ejected", flit.pid, f"{role} ejected at {node}",
                  node=node, role=role)

    def copy_absorbed(self, cycle: int, pid: int, node: Coord) -> None:
        self._add(cycle, "copy", pid, f"multicast copy absorbed at {node}", node=node)

    def deadlock_declared(self, cycle: int) -> None:
        self._add(cycle, "deadlock", None, "watchdog declared deadlock")

    def fault_injected(self, cycle: int, description: str) -> None:
        self._add(cycle, "fault", None, f"fault injected: {description}")

    def packet_aborted(self, cycle: int, pid: int, reason: str) -> None:
        self._add(cycle, "abort", pid, f"aborted ({reason})")

    def packet_retransmitted(self, cycle: int, pid: int, src: Coord) -> None:
        self._add(cycle, "retransmit", pid, f"retransmitted from {src}", node=src)

    def deadlock_recovered(self, cycle: int, victim: int, wait_cycle: list[int]) -> None:
        self._add(
            cycle, "recovered", victim,
            f"cyclic wait {wait_cycle} broken: victim #{victim} aborted",
        )

    def rerouted(self, cycle: int, description: str) -> None:
        self._add(cycle, "rerouted", None, f"rerouted: {description}")

    def _add(
        self,
        cycle: int,
        kind: str,
        pid: int | None,
        detail: str,
        node: Coord | None = None,
        role: str = "",
    ) -> None:
        if len(self.events) >= self.capacity:
            # max(1, ...): tiny capacities must still evict — dropping
            # `capacity // 10 == 0` events would grow the list unboundedly.
            drop = max(1, self.capacity // 10)
            del self.events[:drop]
            self.dropped_events += drop
        self.events.append(TraceEvent(cycle, kind, pid, detail, node, role))

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind."""
        return [e for e in self.events if e.kind == kind]

    def for_packet(self, pid: int) -> list[TraceEvent]:
        """All events concerning one packet, in order."""
        return [e for e in self.events if e.pid == pid]

    def timeline(self, pid: int) -> str:
        """Human-readable journey of one packet.

        Warns when eviction may have cut the beginning of the journey.
        """
        events = self.for_packet(pid)
        if not events:
            return f"#{pid}: no events recorded"
        lines = [f"packet #{pid}:"]
        if self.truncated:
            lines.append(
                f"  (history truncated: {self.dropped_events} oldest events"
                " evicted; early hops may be missing)"
            )
        lines.extend(f"  {e}" for e in events)
        return "\n".join(lines)

    def hops_of(self, pid: int) -> list[Coord]:
        """The node sequence a packet's head visited."""
        return [
            e.node
            for e in self.for_packet(pid)
            if e.kind == "moved" and e.role == "head" and e.node is not None
        ]

    def render(self, *, kinds: Iterable[str] | None = None, limit: int = 200) -> str:
        """Flat listing of (optionally filtered) events."""
        wanted = set(kinds) if kinds else None
        shown = [
            str(e)
            for e in self.events
            if wanted is None or e.kind in wanted
        ]
        clipped = shown[:limit]
        if len(shown) > limit:
            clipped.append(f"... ({len(shown) - limit} more)")
        return "\n".join(clipped)

    def to_jsonl(self, path) -> int:
        """Export the trace as JSON Lines; returns the line count.

        One ``trace-meta`` record (capacity / retained / dropped
        accounting), then one ``trace`` record per retained event.
        Strict JSON throughout, loadable next to a metrics export.
        """
        meta = {
            "record": "trace-meta",
            "capacity": self.capacity,
            "events": len(self.events),
            "dropped_events": self.dropped_events,
        }
        records = (
            {
                "record": "trace",
                "cycle": e.cycle,
                "kind": e.kind,
                "pid": e.pid,
                "detail": e.detail,
                "node": list(e.node) if e.node is not None else None,
                "role": e.role,
            }
            for e in self.events
        )
        return write_jsonl(path, [meta, *records])
