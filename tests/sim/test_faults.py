"""Unit tests for runtime fault injection and regressive recovery."""

import pytest

from repro.core import catalog
from repro.errors import (
    FaultError,
    SimulationError,
    TopologyError,
    UnroutableError,
)
from repro.routing import TurnTableRouting, UnrestrictedAdaptive
from repro.sim import (
    FaultEvent,
    FaultSchedule,
    NetworkSimulator,
    Packet,
    RecoveryPolicy,
    RunConfig,
    ScriptedTraffic,
    Trace,
    TrafficConfig,
    TrafficGenerator,
    run_point,
)
from repro.topology import FaultyMesh, Mesh


def _ebda_factory(design):
    def factory(topo):
        return TurnTableRouting(
            topo, design, directions="progressive", fallback="escape"
        )

    return factory


NEGATIVE_FIRST = catalog.design("negative-first")


def _faulty_sim(mesh, faults, **kwargs):
    factory = _ebda_factory(NEGATIVE_FIRST)
    defaults = dict(
        faults=faults, recovery=RecoveryPolicy(), routing_factory=factory
    )
    defaults.update(kwargs)
    return NetworkSimulator(mesh, factory(mesh), **defaults)


class TestFaultEvent:
    def test_negative_cycle_rejected(self):
        with pytest.raises(SimulationError):
            FaultEvent(-1, "drop")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            FaultEvent(0, "gamma-ray")

    def test_link_fault_needs_link(self):
        with pytest.raises(SimulationError):
            FaultEvent(0, "link")

    def test_router_fault_needs_node(self):
        with pytest.raises(SimulationError):
            FaultEvent(0, "router")

    def test_str_mentions_the_target(self):
        e = FaultEvent(10, "link", link=((0, 0), (1, 0)))
        assert "link" in str(e) and "10" in str(e)


class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(SimulationError):
            RecoveryPolicy(max_retries=0)
        with pytest.raises(SimulationError):
            RecoveryPolicy(backoff_base=0)
        with pytest.raises(SimulationError):
            RecoveryPolicy(backoff_factor=0.5)

    def test_backoff_grows_exponentially(self):
        p = RecoveryPolicy(backoff_base=4, backoff_factor=2.0)
        delays = [p.backoff_delay(a) for a in range(4)]
        assert delays == [4, 8, 16, 32]
        assert p.backoff_delay(0) >= 1


class TestFaultSchedule:
    def test_events_sorted_by_cycle(self):
        sched = FaultSchedule(
            [FaultEvent(20, "drop"), FaultEvent(5, "drop")]
        )
        assert [e.cycle for e in sched] == [5, 20]
        assert sched.last_cycle == 20
        assert len(sched) == 2

    def test_at_groups_by_cycle(self):
        sched = FaultSchedule(
            [FaultEvent(7, "drop"), FaultEvent(7, "drop"), FaultEvent(9, "drop")]
        )
        assert len(sched.at(7)) == 2
        assert sched.at(8) == ()

    def test_empty_schedule(self):
        sched = FaultSchedule([])
        assert sched.last_cycle == -1
        assert "0 events" in repr(sched)

    def test_random_is_deterministic(self):
        a = FaultSchedule.random(Mesh(4, 4), seed=3, n_link_failures=2, n_drops=2)
        b = FaultSchedule.random(Mesh(4, 4), seed=3, n_link_failures=2, n_drops=2)
        assert a.events == b.events

    def test_random_keeps_network_connected(self):
        sched = FaultSchedule.random(Mesh(4, 4), seed=1, n_link_failures=5)
        failed = [e.link for e in sched if e.kind == "link"]
        assert len(failed) == 5
        FaultyMesh(Mesh(4, 4), failed=failed)  # must not raise

    def test_random_rejects_impossible_request(self):
        with pytest.raises(SimulationError):
            FaultSchedule.random(Mesh(2, 2), seed=1, n_link_failures=4)

    def test_random_empty_window_rejected(self):
        with pytest.raises(SimulationError):
            FaultSchedule.random(Mesh(3, 3), seed=1, window=(10, 10))

    def test_random_routing_filter_keeps_full_routability(self):
        factory = _ebda_factory(NEGATIVE_FIRST)
        sched = FaultSchedule.random(
            Mesh(4, 4), seed=2, n_link_failures=2, routing_factory=factory
        )
        failed = [e.link for e in sched if e.kind == "link"]
        topo = FaultyMesh(Mesh(4, 4), failed=failed)
        routing = factory(topo)
        assert all(
            routing.candidates(s, d, None)
            for s in topo.nodes
            for d in topo.nodes
            if s != d
        )


class TestLinkFailure:
    def test_reroutes_and_delivers_everything(self):
        mesh = Mesh(5, 5)
        faults = FaultSchedule(
            [FaultEvent(40, "link", link=((2, 2), (3, 2)))]
        )
        sim = _faulty_sim(mesh, faults)
        traffic = TrafficGenerator(
            mesh, TrafficConfig(injection_rate=0.05, packet_length=4, seed=11)
        )
        stats = sim.run(200, traffic, drain=True)
        assert not stats.deadlocked
        assert stats.faults_injected == 1
        assert stats.delivery_ratio == 1.0
        assert isinstance(sim.topology, FaultyMesh)
        assert sim.topology.failed_links == (((2, 2), (3, 2)),)
        assert sim.last_reroute_verdict is not None
        assert sim.last_reroute_verdict.acyclic

    def test_duplicate_failure_is_ignored(self):
        mesh = Mesh(4, 4)
        faults = FaultSchedule(
            [
                FaultEvent(30, "link", link=((1, 1), (2, 1))),
                FaultEvent(60, "link", link=((2, 1), (1, 1))),
            ]
        )
        sim = _faulty_sim(mesh, faults)
        traffic = TrafficGenerator(
            mesh, TrafficConfig(injection_rate=0.03, packet_length=4, seed=2)
        )
        stats = sim.run(120, traffic, drain=True)
        assert stats.faults_injected == 1
        assert stats.delivery_ratio == 1.0

    def test_unknown_link_fault_is_an_error(self):
        mesh = Mesh(4, 4)
        faults = FaultSchedule(
            [FaultEvent(5, "link", link=((0, 0), (3, 3)))]  # not adjacent
        )
        sim = _faulty_sim(mesh, faults)
        with pytest.raises(FaultError):
            sim.run(20)

    def test_unknown_router_fault_is_an_error(self):
        mesh = Mesh(4, 4)
        faults = FaultSchedule([FaultEvent(5, "router", node=(9, 9))])
        sim = _faulty_sim(mesh, faults)
        with pytest.raises(FaultError):
            sim.run(20)

    def test_disconnecting_failure_raises_unroutable(self):
        mesh = Mesh(2, 2)
        faults = FaultSchedule(
            [
                FaultEvent(10, "link", link=((0, 0), (1, 0))),
                FaultEvent(20, "link", link=((0, 0), (0, 1))),
            ]
        )
        sim = _faulty_sim(mesh, faults)
        with pytest.raises(UnroutableError):
            sim.run(50)

    def test_cyclic_reroute_raises_fault_error(self):
        mesh = Mesh(4, 4)
        faults = FaultSchedule([FaultEvent(10, "link", link=((1, 1), (2, 1)))])
        sim = NetworkSimulator(
            mesh,
            UnrestrictedAdaptive(mesh),
            faults=faults,
            recovery=RecoveryPolicy(),
            routing_factory=lambda topo: UnrestrictedAdaptive(topo),
        )
        with pytest.raises(FaultError):
            sim.run(50)

    def test_cyclic_reroute_tolerated_when_not_required(self):
        mesh = Mesh(4, 4)
        faults = FaultSchedule([FaultEvent(10, "link", link=((1, 1), (2, 1)))])
        sim = NetworkSimulator(
            mesh,
            UnrestrictedAdaptive(mesh),
            faults=faults,
            recovery=RecoveryPolicy(),
            routing_factory=lambda topo: UnrestrictedAdaptive(topo),
            require_acyclic_reroute=False,
        )
        sim.run(50)
        assert sim.last_reroute_verdict is not None
        assert not sim.last_reroute_verdict.acyclic

    def test_permanent_fault_without_factory_raises(self):
        mesh = Mesh(4, 4)
        faults = FaultSchedule([FaultEvent(10, "link", link=((1, 1), (2, 1)))])
        sim = NetworkSimulator(mesh, UnrestrictedAdaptive(mesh), faults=faults)
        with pytest.raises(FaultError):
            sim.run(50)


class TestRouterFailure:
    def test_dead_router_traffic_is_lost_rest_delivered(self):
        mesh = Mesh(4, 4)
        faults = FaultSchedule([FaultEvent(50, "router", node=(1, 1))])
        sim = _faulty_sim(mesh, faults)
        traffic = TrafficGenerator(
            mesh, TrafficConfig(injection_rate=0.05, packet_length=4, seed=4)
        )
        stats = sim.run(200, traffic, drain=True)
        assert stats.faults_injected == 1
        assert (1, 1) not in sim.topology.node_set
        assert not stats.deadlocked
        # every packet either arrived or was counted lost — none vanished
        assert (
            stats.packets_delivered + stats.packets_lost
            == stats.packets_injected
        )
        assert stats.packets_lost > 0  # (1,1) was sourcing/sinking traffic

    def test_offers_do_not_reread_the_failed_routers(self, monkeypatch):
        topo = FaultyMesh(Mesh(4, 4), failed=[], failed_nodes=[(1, 1)])
        sim = _faulty_sim(topo, None)
        reads = []
        failed_nodes = FaultyMesh.failed_nodes

        def counting(self):
            reads.append(1)
            return failed_nodes.fget(self)

        monkeypatch.setattr(FaultyMesh, "failed_nodes", property(counting))
        live = [n for n in topo.nodes if n != (1, 1)]
        packets = [
            Packet(pid=pid, src=src, dst=dst, length=2, created=0)
            for pid, (src, dst) in enumerate(
                [(a, b) for a in live for b in live if a != b]
                + [((1, 1), b) for b in live] + [(a, (1, 1)) for a in live]
            )
        ]
        for packet in packets:
            sim.offer_packet(packet)
        assert reads == []
        assert sim.stats.packets_injected == len(packets)
        assert sim.stats.packets_lost == 2 * len(live)


class TestDropFault:
    def test_targeted_drop_retransmits_end_to_end(self):
        mesh = Mesh(4, 4)
        faults = FaultSchedule([FaultEvent(3, "drop", pid=0)])
        tracer = Trace()
        sim = _faulty_sim(mesh, faults, tracer=tracer)
        script = ScriptedTraffic({0: [((0, 0), (3, 3), 6)]})
        stats = sim.run(2, script, drain=True)
        assert stats.faults_injected == 1
        assert stats.packets_aborted == 1
        assert stats.retransmissions == 1
        assert stats.delivery_ratio == 1.0
        assert len(stats.recovery_latencies) == 1
        assert stats.avg_recovery_latency > 0
        kinds = [e.kind for e in tracer.events]
        assert "fault" in kinds and "abort" in kinds and "retransmit" in kinds

    def test_drop_without_recovery_loses_the_packet(self):
        mesh = Mesh(4, 4)
        faults = FaultSchedule([FaultEvent(3, "drop", pid=0)])
        sim = _faulty_sim(mesh, faults, recovery=None)
        script = ScriptedTraffic({0: [((0, 0), (3, 3), 6)]})
        stats = sim.run(2, script, drain=True)
        assert stats.packets_lost == 1
        assert stats.packets_delivered == 0

    def test_random_drop_waits_for_in_flight_traffic(self):
        mesh = Mesh(4, 4)
        # nothing is in flight at cycle 1: the drop must be a no-op
        faults = FaultSchedule([FaultEvent(1, "drop")])
        sim = _faulty_sim(mesh, faults)
        stats = sim.run(10)
        assert stats.faults_injected == 0


class TestDeadlockRecovery:
    def test_cyclic_wait_recovered_and_drained(self):
        mesh = Mesh(4, 4)
        tracer = Trace()
        sim = NetworkSimulator(
            mesh,
            UnrestrictedAdaptive(mesh),
            watchdog=80,
            seed=3,
            recovery=RecoveryPolicy(max_retries=20),
            tracer=tracer,
        )
        traffic = TrafficGenerator(
            mesh, TrafficConfig(injection_rate=0.35, packet_length=6, seed=3)
        )
        stats = sim.run(400, traffic, drain=True)
        assert not stats.deadlocked
        assert stats.recovered_deadlocks >= 1
        assert stats.retransmissions >= 1
        assert stats.delivery_ratio == 1.0
        assert tracer.of_kind("recovered")

    def test_exhausted_retries_fall_back_to_deadlock(self):
        mesh = Mesh(4, 4)
        sim = NetworkSimulator(
            mesh,
            UnrestrictedAdaptive(mesh),
            watchdog=80,
            seed=3,
            recovery=RecoveryPolicy(max_retries=2),
        )

        # Pretend every packet has already burnt its retry budget: the
        # watchdog must then fall back to declaring a hard deadlock.
        class _Spent(dict):
            def get(self, key, default=0):
                return 10**9

        sim._retries = _Spent()
        traffic = TrafficGenerator(
            mesh, TrafficConfig(injection_rate=0.35, packet_length=6, seed=3)
        )
        stats = sim.run(400, traffic, drain=True)
        assert stats.deadlocked
        assert stats.deadlock_declared_at is not None
        assert stats.recovered_deadlocks == 0


class TestAcceptanceScenario:
    """ISSUE acceptance: deadlock recovery + fault-triggered reconfiguration."""

    @staticmethod
    def _run():
        mesh = Mesh(4, 4)
        faults = FaultSchedule(
            [FaultEvent(450, "link", link=((1, 1), (2, 1)))], seed=9
        )
        sim = NetworkSimulator(
            mesh,
            UnrestrictedAdaptive(mesh),  # adaptive, deadlock-prone
            watchdog=80,
            seed=3,
            faults=faults,
            recovery=RecoveryPolicy(max_retries=20),
            routing_factory=_ebda_factory(NEGATIVE_FIRST),
        )
        traffic = TrafficGenerator(
            mesh, TrafficConfig(injection_rate=0.35, packet_length=6, seed=3)
        )
        stats = sim.run(300, traffic, drain=True)
        return sim, stats

    def test_recovers_reroutes_and_delivers_everything(self):
        sim, stats = self._run()
        assert stats.recovered_deadlocks >= 1
        assert stats.faults_injected == 1
        assert stats.delivery_ratio == 1.0
        assert sim.last_reroute_verdict is not None
        assert sim.last_reroute_verdict.acyclic
        assert sim.routing.name.startswith("EbDa")

    def test_same_seed_runs_are_identical(self):
        _, a = self._run()
        _, b = self._run()
        assert a.summary(16) == b.summary(16)
        assert a.recovery_latencies == b.recovery_latencies


class TestRunnerIntegration:
    def test_run_config_passes_fault_knobs_through(self):
        mesh = Mesh(4, 4)
        factory = _ebda_factory(NEGATIVE_FIRST)
        cfg = RunConfig(
            cycles=150,
            injection_rate=0.04,
            faults=FaultSchedule(
                [FaultEvent(40, "link", link=((1, 1), (2, 1)))]
            ),
            recovery=RecoveryPolicy(),
            routing_factory=factory,
        )
        result = run_point(mesh, factory(mesh), cfg)
        assert result.stats.faults_injected == 1
        assert result.stats.delivery_ratio == 1.0


class TestScheduleValidation:
    """Construction-time rejection of unapplyable schedules."""

    def test_event_at_horizon_rejected(self):
        event = FaultEvent(100, "link", link=((0, 0), (1, 0)))
        with pytest.raises(FaultError, match="max_cycles=100"):
            FaultSchedule([event], max_cycles=100)

    def test_event_after_horizon_rejected(self):
        event = FaultEvent(250, "drop")
        with pytest.raises(FaultError, match="horizon"):
            FaultSchedule([event], max_cycles=200)

    def test_error_names_the_offending_event(self):
        event = FaultEvent(99, "router", node=(1, 1))
        with pytest.raises(FaultError, match=r"cycle 99: router \(1, 1\)"):
            FaultSchedule([event], max_cycles=50)

    def test_event_inside_horizon_accepted(self):
        sched = FaultSchedule(
            [FaultEvent(99, "link", link=((0, 0), (1, 0)))], max_cycles=100
        )
        assert sched.max_cycles == 100
        assert len(sched) == 1

    def test_no_horizon_accepts_any_cycle(self):
        assert len(FaultSchedule([FaultEvent(10**6, "drop")])) == 1

    def test_duplicate_link_same_cycle_rejected(self):
        a = FaultEvent(10, "link", link=((0, 0), (1, 0)))
        b = FaultEvent(10, "link", link=((1, 0), (0, 0)))  # same pair, flipped
        with pytest.raises(FaultError, match="duplicate"):
            FaultSchedule([a, b])

    def test_same_link_different_cycles_accepted(self):
        a = FaultEvent(10, "link", link=((0, 0), (1, 0)))
        b = FaultEvent(20, "link", link=((0, 0), (1, 0)))
        assert len(FaultSchedule([a, b])) == 2

    def test_duplicate_router_same_cycle_rejected(self):
        with pytest.raises(FaultError, match="duplicate"):
            FaultSchedule(
                [FaultEvent(5, "router", node=(1, 1)),
                 FaultEvent(5, "router", node=(1, 1))]
            )

    def test_duplicate_targeted_drop_rejected(self):
        with pytest.raises(FaultError, match="duplicate"):
            FaultSchedule(
                [FaultEvent(5, "drop", pid=3), FaultEvent(5, "drop", pid=3)]
            )

    def test_untargeted_drops_exempt(self):
        sched = FaultSchedule([FaultEvent(5, "drop"), FaultEvent(5, "drop")])
        assert len(sched) == 2

    def test_random_schedules_pass_validation(self):
        mesh = Mesh(4, 4)
        sched = FaultSchedule.random(
            mesh, seed=11, n_link_failures=2, n_drops=2, window=(10, 150)
        )
        # Re-validating against the window's end must not raise.
        revalidated = FaultSchedule(
            sched.events, seed=sched.seed, max_cycles=150
        )
        assert revalidated.events == sched.events
