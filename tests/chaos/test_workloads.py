"""Unit tests for trace-driven workloads."""

import json

import pytest

from repro.errors import EbdaError, SimulationError
from repro.chaos.workloads import (
    NAMED_WORKLOADS,
    WorkloadTrace,
    load_workload,
    resolve_workload,
    workload_token,
)
from repro.sim import NetworkSimulator, RunConfig, run_point
from repro.sim.specs import spec_token


class TestWorkloadTrace:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            WorkloadTrace(kind="gossip")

    def test_validation(self):
        with pytest.raises(SimulationError):
            WorkloadTrace(kind="bursty", rate=1.5)
        with pytest.raises(SimulationError):
            WorkloadTrace(kind="incast", fraction=0.0)
        with pytest.raises(SimulationError):
            WorkloadTrace(kind="all-reduce", rounds=0)
        with pytest.raises(SimulationError):
            WorkloadTrace(kind="replay")  # needs events

    def test_replay_events_validated(self):
        with pytest.raises(SimulationError):
            WorkloadTrace(kind="replay", events=(((-1), (0, 0), (1, 0), 4),))
        with pytest.raises(SimulationError):
            WorkloadTrace(kind="replay", events=((0, (0, 0), (0, 0), 4),))

    def test_dict_round_trip(self):
        for trace in NAMED_WORKLOADS.values():
            assert WorkloadTrace.from_dict(trace.to_dict()) == trace

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SimulationError):
            WorkloadTrace.from_dict({"kind": "shuffle", "surprise": 1})

    def test_token_stable_and_content_addressed(self):
        a = WorkloadTrace(kind="shuffle", seed=3)
        assert a.token() == WorkloadTrace(kind="shuffle", seed=3).token()
        assert a.token() != WorkloadTrace(kind="shuffle", seed=4).token()

    def test_with_seed(self):
        trace = NAMED_WORKLOADS["bursty"].with_seed(99)
        assert trace.seed == 99
        assert trace.kind == "bursty"


class TestMaterialize:
    def test_deterministic(self, mesh4):
        for trace in NAMED_WORKLOADS.values():
            a = trace.materialize(mesh4, 300)
            b = trace.materialize(mesh4, 300)
            assert a.schedule == b.schedule

    def test_all_reduce_shape(self, mesh4):
        trace = WorkloadTrace(kind="all-reduce", rounds=1, interval=4)
        tw = trace.materialize(mesh4, 300)
        n = len(mesh4.endpoints)
        # 2(N-1) phases, one packet per endpoint per phase.
        assert tw.total_packets == 2 * (n - 1) * n
        assert min(tw.schedule) == 0

    def test_shuffle_covers_all_to_all(self, mesh4):
        n = len(mesh4.endpoints)
        trace = WorkloadTrace(kind="shuffle", rounds=n - 1, interval=2)
        tw = trace.materialize(mesh4, 1000)
        pairs = {
            (src, dst)
            for entries in tw.schedule.values()
            for src, dst, _l in entries
        }
        assert len(pairs) == n * (n - 1)  # full all-to-all, no self-sends

    def test_incast_single_sink(self, mesh4):
        tw = NAMED_WORKLOADS["incast"].materialize(mesh4, 300)
        sinks = {dst for e in tw.schedule.values() for _s, dst, _l in e}
        assert len(sinks) == 1

    def test_bursty_respects_horizon(self, mesh4):
        tw = NAMED_WORKLOADS["bursty"].materialize(mesh4, 120)
        assert tw.last_cycle < 120

    def test_packets_have_sequential_pids(self, mesh4):
        tw = NAMED_WORKLOADS["shuffle"].materialize(mesh4, 300)
        pids = [
            p.pid for c in range(tw.last_cycle + 1) for p in tw.packets_for_cycle(c)
        ]
        assert pids == list(range(len(pids)))

    def test_foreign_nodes_rejected(self, mesh4):
        trace = WorkloadTrace(kind="replay", events=((0, (9, 9), (0, 0), 4),))
        with pytest.raises(SimulationError):
            trace.materialize(mesh4, 100)

    def test_needs_two_endpoints(self):
        class OneNode:
            endpoints = ((0, 0),)
            node_set = frozenset({(0, 0)})

        with pytest.raises(SimulationError):
            NAMED_WORKLOADS["shuffle"].materialize(OneNode(), 100)

    def test_as_replay_reproduces_schedule(self, mesh4):
        tw = NAMED_WORKLOADS["incast"].materialize(mesh4, 300)
        replayed = tw.as_replay().materialize(mesh4, 300)
        assert replayed.schedule == tw.schedule


class TestJsonl:
    def test_round_trip_generator(self, tmp_path):
        trace = NAMED_WORKLOADS["bursty"]
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(path)
        assert load_workload(path) == trace

    def test_round_trip_replay(self, tmp_path, mesh4):
        trace = NAMED_WORKLOADS["shuffle"].materialize(mesh4, 300).as_replay()
        path = tmp_path / "trace.jsonl"
        n = trace.save_jsonl(path)
        assert n == 1 + len(trace.events)
        assert load_workload(path) == trace

    def test_replay_file_bytes_are_pinned(self, tmp_path):
        trace = WorkloadTrace(
            kind="replay", events=((0, (0, 0), (1, 2), 4), (5, (2, 1), (0, 0), 2))
        )
        path = tmp_path / "trace.jsonl"
        assert trace.save_jsonl(path) == 3
        assert path.read_text() == (
            '{"burst_len": 16, "fraction": 1.0, "interval": 4, "kind": "replay",'
            ' "off_len": 48, "packet_length": 4, "rate": 0.2,'
            ' "record": "workload-meta", "rounds": 1, "seed": 0, "start": 0}\n'
            '{"cycle": 0, "dst": [1, 2], "length": 4, "record": "injection", "src": [0, 0]}\n'
            '{"cycle": 5, "dst": [0, 0], "length": 2, "record": "injection", "src": [2, 1]}\n'
        )

    def test_strict_loader_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "workload-meta", "kind": "bursty", "rate": NaN}\n')
        with pytest.raises(EbdaError):
            load_workload(path)

    def test_loader_rejects_missing_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "injection", "cycle": 0, "src": [0, 0], "dst": [1, 0], "length": 4}\n')
        with pytest.raises(EbdaError):
            load_workload(path)

    def test_loader_rejects_unknown_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "mystery"}\n')
        with pytest.raises(EbdaError):
            load_workload(path)


class TestSpecIntegration:
    def test_resolve_by_name(self):
        assert resolve_workload("incast") is NAMED_WORKLOADS["incast"]
        trace = WorkloadTrace(kind="shuffle")
        assert resolve_workload(trace) is trace
        with pytest.raises(EbdaError):
            resolve_workload("nope")

    def test_workload_tokens(self):
        assert workload_token(None) == "none"
        assert workload_token("incast") == "name:incast"
        assert workload_token(NAMED_WORKLOADS["incast"]) == "name:incast"
        anon = WorkloadTrace(kind="incast", seed=123)
        assert anon.token() == workload_token(anon)
        assert workload_token(lambda: None) is None

    def test_spec_token_kind(self):
        assert spec_token("workload", "shuffle") == "name:shuffle"
        assert spec_token("workload", None) == "none"

    def test_run_point_traced_mode(self, mesh4):
        config = RunConfig(cycles=200, workload="shuffle", watchdog=300)
        result = run_point(mesh4, "negative-first", config)
        expected = NAMED_WORKLOADS["shuffle"].materialize(mesh4, 200).total_packets
        assert result.stats.packets_injected == expected
        assert result.stats.packets_delivered == expected
        assert not result.stats.deadlocked

    def test_traced_mode_ignores_injection_rate(self, mesh4):
        a = run_point(
            mesh4, "xy", RunConfig(cycles=200, workload="incast", injection_rate=0.0)
        )
        b = run_point(
            mesh4, "xy", RunConfig(cycles=200, workload="incast", injection_rate=0.9)
        )
        assert a.stats.to_dict() == b.stats.to_dict()

    def test_traced_workload_drives_simulator_directly(self, mesh4):
        from repro.routing.deterministic import xy_routing

        tw = NAMED_WORKLOADS["all-reduce"].materialize(mesh4, 300)
        sim = NetworkSimulator(mesh4, xy_routing(mesh4), watchdog=400)
        stats = sim.run(300, tw, drain=True)
        assert stats.packets_delivered == tw.total_packets
