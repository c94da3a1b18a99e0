"""Wait-for graph analysis: exact deadlock witnesses.

The watchdog in :class:`~repro.sim.network.NetworkSimulator` detects *that*
progress stopped; this module explains *why*: it builds the packet
wait-for graph (who holds which wire, who waits for whom) and extracts a
cyclic wait — the literal "each packet holds a channel needed by another
packet" of the paper's introduction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cdg.cycles import first_cycle
from repro.cdg.graph import DependencyGraph
from repro.topology.wires import Wire

if TYPE_CHECKING:
    from repro.sim.network import NetworkSimulator


def build_waitfor_graph(sim: "NetworkSimulator") -> DependencyGraph:
    """Packet-level wait-for graph of the simulator's current state.

    Edge ``p -> q``: packet *p* cannot progress until *q* releases a
    resource (*q* owns a wire *p* wants, or *q*'s flits occupy buffer
    space *p* needs).
    """
    graph = DependencyGraph()

    def add_wait(p: int, blocking_wire: Wire) -> None:
        ws = sim.state[blocking_wire]
        holders: set[int] = set()
        if ws.owner is not None and ws.owner != p:
            holders.add(ws.owner)
        for pid in ws.packets_present():
            if pid != p:
                holders.add(pid)
        for q in holders:
            graph.add_edge(p, q)

    # Blocked heads inside the network.
    for wire in sim.wires:
        ws = sim.state[wire]
        flit = ws.front()
        if flit is None:
            continue
        router = wire.dst
        if flit.packet.dst == router:
            continue  # will eject; not blocked
        p = flit.pid
        graph.setdefault(p, [])
        if flit.is_head and (wire, p) not in sim.route_assignment:
            # VC-allocation blocked: waits on every candidate wire's state.
            target = sim.routing.target_of(flit.packet, router)
            for nxt, ch in sim.routing.candidates(router, target, wire.channel):
                cand = sim._wire_lookup.get((router, nxt, ch))
                if cand is not None:
                    add_wait(p, cand)
        else:
            out_wire = sim.route_assignment.get((wire, p))
            if out_wire is not None and sim.state[out_wire].free_slots == 0:
                add_wait(p, out_wire)

    # Blocked injections.
    for node in sim.topology.nodes:
        inj = sim._injecting[node]
        if inj is None or inj.done:
            continue
        p = inj.packet.pid
        graph.setdefault(p, [])
        if inj.out_wire is None:
            target = sim.routing.target_of(inj.packet, node)
            for nxt, ch in sim.routing.candidates(node, target, None):
                cand = sim._wire_lookup.get((node, nxt, ch))
                if cand is not None:
                    add_wait(p, cand)
        elif sim.state[inj.out_wire].free_slots == 0:
            add_wait(p, inj.out_wire)

    return graph


def waitfor_cycle(sim: "NetworkSimulator") -> list[int] | None:
    """A cyclic wait among packet ids, or None when no cycle exists."""
    cycle = first_cycle(build_waitfor_graph(sim))
    return None if cycle is None else list(cycle)


def cycle_witness(
    sim: "NetworkSimulator",
) -> tuple[list[int], list[tuple[Wire, ...]]] | None:
    """The cyclic wait plus the channels each participant holds.

    Returns ``(pids, held)`` where ``held[i]`` is the tuple of wires
    packet ``pids[i]`` owns or occupies while waiting — the literal
    "each packet holds a channel needed by another packet" witness of
    the paper's deadlock definition.  None when no cyclic wait exists.
    """
    pids = waitfor_cycle(sim)
    if pids is None:
        return None
    return pids, [tuple(held_wires(sim, pid)) for pid in pids]


def held_wires(sim: "NetworkSimulator", pid: int) -> list[Wire]:
    """All wires a packet currently owns or occupies (diagnostics)."""
    out: list[Wire] = []
    for wire in sim.wires:
        ws = sim.state[wire]
        if ws.owner == pid or pid in ws.packets_present():
            out.append(wire)
    return out
