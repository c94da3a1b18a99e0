"""The compiled step loop makes the same decisions as the plain one.

:class:`FrozenSimulator` keeps the reference engine's three phase methods
(and ``_move_flit``) exactly as they read before the step loop was
compiled: a dict lookup and a ``front()``/``front_ready()`` call per wire
per phase, and requests grouped by ``Link`` and sorted every cycle.  The
tests drive it and :class:`~repro.sim.network.NetworkSimulator` through
the same cycles and require, after every step, equal stats, equal route
assignments and wire owners, equal buffer contents and an equal trace;
at the end of each run, equal telemetry records and deadlock forensics.
"""

from __future__ import annotations

import copy
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Channel, catalog
from repro.errors import EbdaError, RoutingError
from repro.fuzz import DesignGenerator, DifferentialOracle
from repro.fuzz.design import FAMILIES
from repro.fuzz.oracle import CycleRouting, SimProfile
from repro.routing import MinimalFullyAdaptive, TurnTableRouting, UnrestrictedAdaptive
from repro.routing.dragonfly import DragonflyValiant, dragonfly_rule
from repro.routing.multicast import MulticastHamiltonianRouting
from repro.routing.selection import (
    congestion_aware,
    first_candidate,
    random_candidate,
)
from repro.sim import (
    FaultEvent,
    FaultSchedule,
    MetricsCollector,
    NetworkSimulator,
    Packet,
    RecoveryPolicy,
    ScriptedTraffic,
    Trace,
    TrafficConfig,
    TrafficGenerator,
)
from repro.routing.packet import Flit
from repro.sim.network import _InjectionState
from repro.topology import Dragonfly, Mesh
from repro.topology.base import Link
from repro.topology.classes import no_classes, row_parity
from repro.topology.wires import Wire


class FrozenSimulator(NetworkSimulator):
    """The reference engine with its pre-compilation phase bodies."""

    def _eject_phase(self) -> int:
        moves = 0
        for wire in self.wires:
            ws = self.state[wire]
            flit = ws.front()
            if flit is None or flit.packet.dst != wire.dst:
                continue
            if not ws.front_ready(self.cycle, self.pipeline_delay):
                continue
            ws.pop()
            moves += 1
            if self.tracer is not None:
                self.tracer.ejected(self.cycle, flit, wire.dst)
            if flit.is_tail:
                packet = flit.packet
                packet.delivered = self.cycle
                assert packet.entered is not None
                self.stats.record_delivery(
                    packet.delivered - packet.created,
                    packet.delivered - packet.entered,
                    packet.length,
                )
                aborted_at = self._abort_cycle.pop(packet.pid, None)
                if aborted_at is not None:
                    self.stats.recovery_latencies.append(self.cycle - aborted_at)
                self._retries.pop(packet.pid, None)
                if self.atomic_buffers:
                    ws.owner = None
        return moves

    def _allocation_phase(self) -> None:
        # Heads buffered in the network.
        for wire in self.wires:
            ws = self.state[wire]
            flit = ws.front()
            if flit is None or not flit.is_head:
                continue
            router = wire.dst
            if flit.packet.dst == router:
                continue  # ejected next cycle
            key = (wire, flit.pid)
            if key in self.route_assignment:
                continue
            if self.switching == "saf" and not self._fully_stored(ws, flit.packet):
                continue  # store-and-forward: wait for the whole packet
            try:
                self._try_allocate(router, flit.packet, wire.channel, key)
            except RoutingError as exc:
                self._handle_dead_end(flit.packet, wire.channel, exc)

        # Source-queue heads.
        for node in self.topology.nodes:
            inj = self._injecting[node]
            if inj is None:
                queue = self.source_queues[node]
                if not queue:
                    continue
                inj = _InjectionState(queue.popleft())
                self._injecting[node] = inj
            if inj.out_wire is None:
                try:
                    self._try_allocate(node, inj.packet, None, inj)
                except RoutingError as exc:
                    self._handle_dead_end(inj.packet, None, exc)

    def _traversal_phase(self) -> int:
        # Snapshot buffer space: at most one arrival per wire per cycle
        # (one flit per physical link), so a single free slot suffices.
        space = {wire: self.state[wire].free_slots for wire in self.wires}

        # Gather requests per physical output link.
        by_link: dict[Link, list[tuple[int, object, Wire, Flit]]] = {}
        order = 0
        for wire in self.wires:
            ws = self.state[wire]
            flit = ws.front()
            if flit is None or flit.packet.dst == wire.dst:
                continue
            if not ws.front_ready(self.cycle, self.pipeline_delay):
                continue
            out_wire = self.route_assignment.get((wire, flit.pid))
            if out_wire is None:
                continue
            by_link.setdefault(out_wire.link, []).append((order, wire, out_wire, flit))
            order += 1
        for node in self.topology.nodes:
            inj = self._injecting[node]
            if inj is None or inj.out_wire is None or inj.done:
                continue
            by_link.setdefault(inj.out_wire.link, []).append(
                (order, node, inj.out_wire, inj.current_flit())
            )
            order += 1

        moves = 0
        for link in sorted(by_link):
            requests = [r for r in by_link[link] if space[r[2]] >= 1]
            if not requests:
                continue
            winner = requests[self.cycle % len(requests)]
            _order, source, out_wire, flit = winner
            self._move_flit(source, out_wire, flit)
            space[out_wire] -= 1
            moves += 1
        return moves

    def _move_flit(self, source, out_wire: Wire, flit: Flit) -> None:
        out_state = self.state[out_wire]
        if isinstance(source, Wire):
            ws = self.state[source]
            popped = ws.pop()
            assert popped is flit, "FIFO front changed mid-cycle"
            if flit.is_tail:
                del self.route_assignment[(source, flit.pid)]
                if self.atomic_buffers:
                    ws.owner = None
                # Path-based multicast: a waypoint absorbs its copy once
                # the whole worm (tail included) has passed through it.
                router = source.dst
                packet = flit.packet
                if router in packet.waypoints and router not in packet.copies:
                    packet.copies.add(router)
                    self.stats.multicast_copies += 1
                    if self.tracer is not None:
                        self.tracer.copy_absorbed(self.cycle, packet.pid, router)
        else:  # injection from a source node
            inj = self._injecting[source]
            assert inj is not None and inj.current_flit() is flit
            inj.next_seq += 1
            if flit.is_head:
                inj.packet.entered = self.cycle
            if inj.done:
                self._injecting[source] = None
        out_state.push(flit, self.cycle)
        if self.tracer is not None:
            self.tracer.flit_moved(self.cycle, flit, source, out_wire)
        if flit.is_tail and not self.atomic_buffers:
            # EbDa-relaxed: the wire is re-allocatable as soon as the tail
            # is in the buffer; another packet may queue behind it.
            out_state.owner = None


# -- lockstep driver ------------------------------------------------------------


def _snapshot(sim: NetworkSimulator) -> dict:
    # Every SimStats field: SimStats.to_dict() is a function of them (the
    # derived means are compared once per run, in Lockstep.finish).
    return {
        "stats": sim.stats,
        "assignment": list(sim.route_assignment.items()),
        "owners": [(w, ws.owner) for w, ws in sim.state.items()],
        "buffers": [
            (w, [(f.pid, f.seq) for f in ws.buffer], list(ws.arrivals))
            for w, ws in sim.state.items()
        ],
        "injecting": [
            (node, None if inj is None else (inj.packet.pid, inj.next_seq, inj.out_wire))
            for node, inj in sim._injecting.items()
        ],
    }


class Lockstep:
    """Steps a :class:`NetworkSimulator` and a :class:`FrozenSimulator`
    together, comparing them after every cycle.

    ``build(cls, tracer, metrics)`` constructs one simulator; each side
    gets its own :class:`Trace` and (when ``sample_every`` is set) its own
    :class:`MetricsCollector`.  ``build`` may attach a collector of its
    own instead; whatever ``sim.metrics`` ends up being is compared.
    """

    def __init__(self, build, *, sample_every: int | None = 50) -> None:
        self.sides = []
        for cls in (NetworkSimulator, FrozenSimulator):
            tracer = Trace()
            metrics = MetricsCollector(sample_every) if sample_every else None
            sim = build(cls, tracer, metrics)
            self.sides.append((sim, tracer, sim.metrics))
        self.steps = 0
        self._events_seen = 0

    @property
    def sim(self) -> NetworkSimulator:
        return self.sides[0][0]

    def step(self, new=((), ())) -> EbdaError | None:
        """One cycle on both sides; returns the (shared) error, if any."""
        errors = []
        for (sim, _t, _m), packets in zip(self.sides, new):
            try:
                sim.step(packets)
            except EbdaError as exc:
                errors.append(exc)
            else:
                errors.append(None)
        self.steps += 1
        where = f"cycle {self.sim.cycle} (step {self.steps})"
        ref_err, frozen_err = errors
        assert (type(ref_err), str(ref_err)) == (type(frozen_err), str(frozen_err)), where
        (ref, ref_trace, _), (frozen, frozen_trace, _) = self.sides
        seen = self._events_seen
        assert ref_trace.events[seen:] == frozen_trace.events[seen:], where
        self._events_seen = len(ref_trace.events)
        if ref_err is None:
            assert _snapshot(ref) == _snapshot(frozen), where
        return ref_err

    def run(self, cycles: int, traffic=None, frozen_traffic=None, *, drain=False):
        """``NetworkSimulator.run`` on both sides; the reference's stats."""
        if traffic is not None and frozen_traffic is None:
            frozen_traffic = copy.deepcopy(traffic)
        sources = (traffic, frozen_traffic)

        def offered():
            return tuple(
                src.packets_for_cycle(sim.cycle) if src is not None else ()
                for (sim, _t, _m), src in zip(self.sides, sources)
            )

        for _ in range(cycles):
            error = self.step(offered())
            if error is not None:
                raise error
            if self.sim.stats.deadlocked:
                break
        if drain and not self.sim.stats.deadlocked:
            extra = 0
            while not self.sim.is_idle() and extra < 100_000:
                error = self.step()
                if error is not None:
                    raise error
                extra += 1
                if self.sim.stats.deadlocked:
                    break
        return self.sim.stats

    def finish(self) -> None:
        """Compare the end-of-run telemetry export and deadlock forensics."""
        (ref, ref_trace, ref_m), (frozen, frozen_trace, frozen_m) = self.sides
        assert ref.stats.to_dict() == frozen.stats.to_dict()
        assert ref_trace.events == frozen_trace.events
        assert ref.is_idle() == frozen.is_idle()
        if ref_m is not None:
            ref_f, frozen_f = ref_m.forensics, frozen_m.forensics
            assert (ref_f is None) == (frozen_f is None)
            if ref_f is not None:
                assert ref_f.to_dict() == frozen_f.to_dict()
            assert ref_m.records(ref.stats) == frozen_m.records(frozen.stats)


def _run_pair(build, cycles, make_traffic=None, *, drain=True, sample_every=50):
    pair = Lockstep(build, sample_every=sample_every)
    traffic = (make_traffic(), make_traffic()) if make_traffic else (None, None)
    stats = pair.run(cycles, *traffic, drain=drain)
    pair.finish()
    return stats, pair


def _two_vc_adaptive(mesh):
    # Two VCs on the Y links: several output wires share one link, so
    # traversal has to pick a round-robin winner among them.
    return MinimalFullyAdaptive(mesh)


def _uniform(mesh, rate, length, seed, **extra):
    return lambda: TrafficGenerator(
        mesh,
        TrafficConfig(injection_rate=rate, packet_length=length, seed=seed, **extra),
    )


# -- switching, buffer discipline and pipeline depth -------------------------------


@pytest.mark.parametrize("pipeline_delay", [0, 2])
@pytest.mark.parametrize("atomic", [False, True])
@pytest.mark.parametrize("switching", ["wormhole", "vct", "saf"])
def test_switching_matrix(switching, atomic, pipeline_delay):
    mesh = Mesh(4, 4)

    def build(cls, tracer, metrics):
        return cls(
            mesh,
            _two_vc_adaptive(mesh),
            buffer_depth=4,
            switching=switching,
            atomic_buffers=atomic,
            pipeline_delay=pipeline_delay,
            tracer=tracer,
            metrics=metrics,
        )

    stats, _ = _run_pair(build, 250, _uniform(mesh, 0.2, 4, seed=7))
    assert stats.packets_delivered > 0
    assert stats.flit_moves > 0


# -- selection policies -------------------------------------------------------------


@pytest.mark.parametrize(
    "selection", [first_candidate, random_candidate, congestion_aware]
)
def test_selection_policies(selection):
    mesh = Mesh(4, 4)

    def build(cls, tracer, metrics):
        return cls(
            mesh,
            _two_vc_adaptive(mesh),
            buffer_depth=2,
            selection=selection,
            seed=5,
            tracer=tracer,
            metrics=metrics,
        )

    stats, _ = _run_pair(build, 300, _uniform(mesh, 0.3, 6, seed=11))
    assert stats.packets_delivered > 0


# -- faults, recovery and the rebuild path --------------------------------------------


def test_link_router_and_drop_faults_with_recovery():
    mesh = Mesh(4, 4)
    design = catalog.design("negative-first")

    def factory(topo):
        return TurnTableRouting(topo, design, directions="progressive", fallback="escape")

    faults = FaultSchedule(
        [
            FaultEvent(40, "link", link=((1, 1), (2, 1))),
            FaultEvent(60, "drop"),
            FaultEvent(90, "router", node=(2, 2)),
            FaultEvent(120, "drop"),
            FaultEvent(150, "link", link=((2, 3), (3, 3))),
        ],
        seed=4,
    )

    def build(cls, tracer, metrics):
        return cls(
            mesh,
            factory(mesh),
            buffer_depth=3,
            faults=faults,
            recovery=RecoveryPolicy(),
            routing_factory=factory,
            tracer=tracer,
            metrics=metrics,
        )

    stats, pair = _run_pair(build, 220, _uniform(mesh, 0.15, 4, seed=4))
    assert stats.faults_injected == 5
    assert stats.packets_aborted > 0
    assert (2, 2) not in pair.sim.topology.node_set
    assert stats.packets_delivered + stats.packets_lost == stats.packets_injected


def test_deadlock_recovery_aborts_the_same_victims():
    mesh = Mesh(4, 4)

    def build(cls, tracer, metrics):
        return cls(
            mesh,
            UnrestrictedAdaptive(mesh),
            watchdog=80,
            seed=3,
            recovery=RecoveryPolicy(max_retries=20),
            tracer=tracer,
            metrics=metrics,
        )

    stats, _ = _run_pair(build, 400, _uniform(mesh, 0.35, 6, seed=3))
    assert stats.recovered_deadlocks >= 1


# -- multicast waypoints and Valiant dragonfly ------------------------------------------


class _Worms:
    """Path-based multicast worms offered every few cycles (each visits
    its waypoints in the row-snake Hamiltonian order the "up" network
    follows)."""

    def __init__(self) -> None:
        self.pid = 0

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        if cycle % 6 or cycle > 120:
            return []
        out = []
        for src, dst, waypoints in (
            ((0, 0), (0, 3), ((3, 0), (3, 1))),
            ((1, 0), (2, 3), ((2, 1), (1, 2))),
            ((0, 1), (0, 3), ((2, 2),)),
        ):
            out.append(
                Packet(self.pid, src, dst, 3, cycle, waypoints=waypoints)
            )
            self.pid += 1
        return out


def test_multicast_waypoints():
    mesh = Mesh(4, 4)

    def build(cls, tracer, metrics):
        return cls(
            mesh,
            MulticastHamiltonianRouting(mesh, "up"),
            row_parity,
            buffer_depth=4,
            watchdog=1000,
            tracer=tracer,
            metrics=metrics,
        )

    stats, _ = _run_pair(build, 130, _Worms)
    assert stats.multicast_copies > 0


class _ValiantTraffic:
    """Uniform traffic with each packet's Valiant waypoint stamped."""

    def __init__(self, topo, routing_of) -> None:
        self.traffic = TrafficGenerator(
            topo, TrafficConfig(injection_rate=0.08, packet_length=4, seed=13)
        )
        self.routing_of = routing_of
        self.rng = random.Random(14)

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        new = self.traffic.packets_for_cycle(cycle)
        for packet in new:
            self.routing_of().prepare(packet, self.rng)
        return new


def test_dragonfly_valiant():
    topo = Dragonfly(groups=4)
    pair = Lockstep(
        lambda cls, tracer, metrics: cls(
            topo,
            DragonflyValiant(topo),
            dragonfly_rule,
            buffer_depth=4,
            watchdog=4000,
            tracer=tracer,
            metrics=metrics,
        )
    )
    (ref, _t, _m), (frozen, _ft, _fm) = pair.sides
    stats = pair.run(
        200,
        _ValiantTraffic(topo, lambda: ref.routing),
        _ValiantTraffic(topo, lambda: frozen.routing),
        drain=True,
    )
    pair.finish()
    assert stats.multicast_copies > 0
    assert stats.packets_delivered == stats.packets_injected


# -- a crafted-ring deadlock ------------------------------------------------------------


def test_crafted_ring_deadlock_forensics():
    mesh = Mesh(3, 3)
    classes = tuple(
        Channel(dim, sign) for dim in (0, 1) for sign in (+1, -1)
    )
    hops = [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (0, 0))]
    links = {(l.src, l.dst): l for l in mesh.links}
    ring = tuple(
        Wire(link, Channel(link.dim, link.sign)) for link in (links[h] for h in hops)
    )
    depth = 2
    script = [
        (wire.src, ring[(i + 1) % len(ring)].dst, depth + 2)
        for i, wire in enumerate(ring)
    ]

    def build(cls, tracer, metrics):
        return cls(
            mesh,
            CycleRouting(mesh, ring, classes, no_classes),
            buffer_depth=depth,
            watchdog=50,
            tracer=tracer,
            metrics=metrics,
        )

    stats, pair = _run_pair(
        build, 250, lambda: ScriptedTraffic({0: script}), drain=False
    )
    assert stats.deadlocked
    forensics = pair.sides[0][2].forensics
    assert sorted(forensics.wait_cycle) == [0, 1, 2, 3]


# -- Hypothesis-drawn fuzz designs ----------------------------------------------------------

#: The fuzz oracle's fast budgets, without the vector mirror (the vector
#: engine is not under test here).
_PROFILE = SimProfile(cycles=250, watchdog=120, seeds=(0,), compare_backends=False)


class _Twin:
    """Stands in for ``NetworkSimulator`` inside the fuzz oracle: every
    simulation the oracle runs is driven on both engines in lockstep."""

    instances: list[Lockstep] = []

    def __init__(self, topology, routing, rule, *, metrics=None, **kwargs) -> None:
        def build(cls, tracer, side_metrics):
            if cls is NetworkSimulator:
                side_metrics = metrics
            elif metrics is not None:
                side_metrics = MetricsCollector(
                    metrics.sample_every,
                    series_capacity=metrics.series_capacity,
                    trace_tail=metrics.trace_tail,
                )
            return cls(
                topology, routing, rule, tracer=tracer, metrics=side_metrics, **kwargs
            )

        self.pair = Lockstep(build, sample_every=None)
        _Twin.instances.append(self.pair)

    def run(self, cycles, traffic=None):
        try:
            return self.pair.run(cycles, traffic)
        finally:
            self.pair.finish()

    def __getattr__(self, name):
        # The oracle reads a stopped run's state for deadlock forensics.
        return getattr(self.pair.sim, name)


@given(
    seed=st.integers(min_value=0, max_value=999),
    trial=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=20, deadline=None)
def test_fuzz_designs(seed, trial):
    design = DesignGenerator(seed, families=tuple(FAMILIES)).design_for(trial)
    _Twin.instances = []
    with mock.patch("repro.fuzz.oracle.NetworkSimulator", _Twin):
        result = DifferentialOracle(_PROFILE).run(design)
    assert result.classification != "oracle-error", result.error
    assert _Twin.instances or not result.sim_runs
