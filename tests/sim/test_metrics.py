"""Tests for the telemetry layer: sampling, export, forensics."""

import json

import pytest

from repro.errors import EbdaError, SimulationError
from repro.routing import TurnTableRouting
from repro.routing.deterministic import xy_routing
from repro.sim import (
    MetricsCollector,
    NetworkSimulator,
    RunConfig,
    ScriptedTraffic,
    TimeSeries,
    Trace,
    TrafficConfig,
    TrafficGenerator,
    load_metrics,
    render_forensics,
    render_heatmap,
    render_summary,
    run_point,
)
from repro.sim.metrics import METRICS_SCHEMA
from repro.sim.specs import spec_token
from repro.core import catalog
from repro.store import read_json
from repro.topology import Mesh
from tests.sim.test_deadlock import RingRouting

#: The keys each exported record kind must carry.
REQUIRED_KEYS = {
    "meta": {"schema", "topology", "n_nodes", "routing", "sample_every",
             "cycles", "samples", "n_channels", "n_routers"},
    "sample": {"cycle", "throughput", "flit_moves", "buffered_flits",
               "injection_depth", "packets_in_flight", "vc_stalls",
               "mean_link_utilization", "max_link_utilization"},
    "channel": {"wire", "channel", "partition", "src", "dst", "flits",
                "utilization"},
    "router": {"node", "avg_buffered", "peak_buffered", "vc_stalls"},
    "stats": {"flit_moves", "flits_delivered", "packets_delivered"},
    "forensics": {"declared_at", "wait_cycle", "witness_channels",
                  "blocked", "buffer_occupancy"},
}


def validate(path):
    """Load one exported JSONL file strictly and check it against itself.

    Each record kind carries its required keys, the record counts match
    the meta record, sample cycles strictly increase, and the channel
    counters conserve flits against the stats record.
    """
    records = load_metrics(path)
    for index, record in enumerate(records, 1):
        missing = REQUIRED_KEYS.get(record["record"], set()) - set(record)
        assert not missing, f"record {index} ({record['record']}) lacks {sorted(missing)}"
    meta = records[0]

    def of(kind):
        return [r for r in records if r["record"] == kind]

    channels, samples = of("channel"), of("sample")
    assert len(channels) == meta["n_channels"]
    assert len(of("router")) == meta["n_routers"]
    assert len(samples) == meta["samples"]
    cycles = [s["cycle"] for s in samples]
    assert cycles == sorted(set(cycles)), "sample cycles are not strictly increasing"
    for stats in of("stats")[:1]:
        assert sum(c["flits"] for c in channels) == (
            stats["flit_moves"] - stats["flits_delivered"]
        )
    return records


def _metered_run(cycles=400, sample_every=50, rate=0.05, tracer=None, seed=3):
    mesh = Mesh(4, 4)
    collector = MetricsCollector(sample_every=sample_every)
    sim = NetworkSimulator(
        mesh, xy_routing(mesh), metrics=collector, tracer=tracer
    )
    traffic = TrafficGenerator(
        mesh, TrafficConfig(injection_rate=rate, packet_length=4, seed=seed)
    )
    stats = sim.run(cycles, traffic, drain=True)
    collector.finalize()  # final partial-window sample; exact counters
    return collector, stats, mesh


def _deadlocked_collector(sample_every=10, with_tracer=True):
    mesh = Mesh(2, 2)
    collector = MetricsCollector(sample_every=sample_every)
    tracer = Trace() if with_tracer else None
    sim = NetworkSimulator(
        mesh, RingRouting(mesh), buffer_depth=2, watchdog=50,
        tracer=tracer, metrics=collector,
    )
    script = ScriptedTraffic(
        {
            0: [
                ((0, 0), (1, 1), 4),
                ((1, 0), (0, 1), 4),
                ((1, 1), (0, 0), 4),
                ((0, 1), (1, 0), 4),
            ]
        }
    )
    stats = sim.run(300, script)
    assert stats.deadlocked
    return collector, stats


class TestTimeSeries:
    def test_ring_buffer_evicts_and_counts(self):
        ts = TimeSeries("t", capacity=3)
        for c in range(5):
            ts.append(c, float(c))
        assert len(ts) == 3
        assert ts.cycles == [2, 3, 4]
        assert ts.values == [2.0, 3.0, 4.0]
        assert ts.dropped == 2

    def test_aggregates(self):
        ts = TimeSeries("t")
        assert ts.mean() is None and ts.max() is None and ts.last() is None
        ts.append(1, 2.0)
        ts.append(2, 4.0)
        assert ts.mean() == 3.0
        assert ts.max() == 4.0
        assert ts.last() == 4.0
        assert list(ts) == [(1, 2.0), (2, 4.0)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            TimeSeries("t", capacity=0)

    def test_to_dict(self):
        ts = TimeSeries("t", capacity=2)
        ts.append(5, 1.5)
        d = ts.to_dict()
        assert d == {"name": "t", "cycles": [5], "values": [1.5], "dropped": 0}


class TestCollector:
    def test_sample_every_validated(self):
        with pytest.raises(SimulationError):
            MetricsCollector(sample_every=0)

    def test_bind_is_one_shot(self):
        mesh = Mesh(3, 3)
        collector = MetricsCollector()
        NetworkSimulator(mesh, xy_routing(mesh), metrics=collector)
        with pytest.raises(SimulationError):
            NetworkSimulator(mesh, xy_routing(mesh), metrics=collector)

    def test_sampling_cadence_and_final_partial_window(self):
        collector, stats, _mesh = _metered_run(cycles=400, sample_every=50)
        # One sample per full 50-cycle window, plus the finalize() sample
        # covering the partial drain tail (if the run did not end on a
        # boundary).
        assert collector.samples_taken >= stats.cycles // 50
        assert collector.cycles_observed == stats.cycles
        thr = collector.series["throughput"]
        assert len(thr) == collector.samples_taken
        assert all(c <= stats.cycles for c in thr.cycles)

    def test_flit_conservation_against_stats(self):
        collector, stats, _mesh = _metered_run()
        assert stats.packets_aborted == 0
        total = sum(c.flits for c in collector._channels.values())
        # Every traversal move lands a flit in some wire buffer, except
        # ejections: carried == moves - delivered exactly.
        assert total == stats.flit_moves - stats.flits_delivered

    def test_vc_stalls_counted_per_router(self):
        collector, _stats, _mesh = _metered_run(rate=0.15)
        assert collector.total_vc_stalls > 0
        per_router = sum(r.vc_stalls for r in collector._routers.values())
        assert per_router == collector.total_vc_stalls

    def test_disabled_metrics_leaves_simulator_untouched(self):
        mesh = Mesh(3, 3)
        sim = NetworkSimulator(mesh, xy_routing(mesh))
        assert sim.metrics is None
        sim.run(50)

    def test_utilization_and_hottest(self):
        collector, _stats, _mesh = _metered_run()
        hottest = collector.hottest_channels(3)
        assert len(hottest) == 3
        assert hottest[0][1] >= hottest[1][1] >= hottest[2][1]
        wire, util = hottest[0]
        assert util == pytest.approx(collector.utilization_of(wire))
        assert 0.0 < util <= 1.0

    def test_summary_dict_is_json_safe(self):
        collector, _stats, _mesh = _metered_run()
        d = collector.summary_dict()
        json.dumps(d, allow_nan=False)
        assert d["deadlock"] is False
        assert d["samples"] == collector.samples_taken


class TestPartitionHeatmap:
    def test_heatmap_keys_are_ebda_partitions(self):
        mesh = Mesh(4, 4)
        design = catalog.design("west-first")
        routing = TurnTableRouting(mesh, design, label="west-first")
        collector = MetricsCollector(sample_every=50)
        sim = NetworkSimulator(mesh, routing, metrics=collector)
        traffic = TrafficGenerator(
            mesh, TrafficConfig(injection_rate=0.05, packet_length=4, seed=1)
        )
        sim.run(300, traffic, drain=True)
        heat = collector.heatmap()
        names = {p.name for p in design.partitions}
        assert set(heat) == names
        for entry in heat.values():
            assert entry["wires"] > 0
            assert 0.0 <= entry["mean_utilization"] <= entry["max_utilization"]
            assert entry["hottest"]

    def test_heatmap_falls_back_to_channel_groups_without_design(self):
        collector, _stats, _mesh = _metered_run()
        heat = collector.heatmap()
        assert set(heat) == {"X+", "X-", "Y+", "Y-"}

    def test_render_heatmap_draws_2d_grids(self):
        collector, _stats, _mesh = _metered_run()
        text = collector.render_heatmap()
        assert "partition" in text
        assert "|" in text  # grid rows rendered for the 2D mesh


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        collector, stats, mesh = _metered_run()
        path = tmp_path / "m.jsonl"
        n = collector.to_jsonl(path, stats=stats)
        records = validate(path)
        assert len(records) == n
        meta = records[0]
        assert meta["record"] == "meta"
        assert meta["schema"] == METRICS_SCHEMA
        assert meta["n_nodes"] == len(mesh.nodes)
        assert meta["shape"] == [4, 4]
        kinds = {r["record"] for r in records}
        assert {"meta", "sample", "channel", "router", "stats"} <= kinds
        channels = [r for r in records if r["record"] == "channel"]
        assert len(channels) == meta["n_channels"] == 48
        assert sum(c["flits"] for c in channels) == (
            stats.flit_moves - stats.flits_delivered
        )

    def test_healthy_export_validates(self, tmp_path):
        collector, stats, _mesh = _metered_run(cycles=500, seed=1)
        assert not stats.deadlocked
        path = tmp_path / "m.jsonl"
        collector.to_jsonl(path, stats=stats)
        records = validate(path)
        assert not [r for r in records if r["record"] == "forensics"]

    def test_jsonl_is_strict_json(self, tmp_path):
        collector, _stats, _mesh = _metered_run()
        path = tmp_path / "m.jsonl"
        collector.to_jsonl(path)
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=lambda t: pytest.fail(f"bad token {t}"))

    def test_load_metrics_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "meta", "schema": 1, "x": NaN}\n')
        with pytest.raises(EbdaError, match="strict JSON"):
            load_metrics(path)

    def test_load_metrics_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "meta", "schema": 999}\n')
        with pytest.raises(EbdaError, match="schema"):
            load_metrics(path)

    def test_load_metrics_rejects_missing_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "sample", "cycle": 1}\n')
        with pytest.raises(EbdaError, match="meta"):
            load_metrics(path)

    def test_csv_export(self, tmp_path):
        collector, _stats, _mesh = _metered_run()
        path = tmp_path / "m.csv"
        rows = collector.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == rows + 1  # header
        assert lines[0].startswith("cycle,throughput,")

    def test_summary_renders(self):
        collector, stats, _mesh = _metered_run()
        text = collector.summary(stats)
        assert "telemetry summary" in text
        assert "hottest channels" in text
        assert "Mesh(4, 4)" in text

    def test_render_functions_accept_loaded_records(self, tmp_path):
        collector, stats, _mesh = _metered_run()
        path = tmp_path / "m.jsonl"
        collector.to_jsonl(path, stats=stats)
        records = load_metrics(path)
        assert "telemetry summary" in render_summary(records)
        assert "heatmap" in render_heatmap(records)
        assert "no deadlock forensics" in render_forensics(records)


class TestForensics:
    def test_crafted_ring_deadlock_names_witness_and_packets(self):
        collector, stats, = _deadlocked_collector()
        f = collector.forensics
        assert f is not None
        assert f.declared_at == stats.deadlock_declared_at
        assert sorted(f.wait_cycle) == [0, 1, 2, 3]
        # Each participant holds exactly its source wire of the 2x2 ring.
        held = {w for wires in f.witness_channels for w in wires}
        assert held == {
            "X+@(0, 0)->(1, 0)",
            "Y+@(1, 0)->(1, 1)",
            "X-@(1, 1)->(0, 1)",
            "Y-@(0, 1)->(0, 0)",
        }
        pids = {b.pid for b in f.blocked}
        assert pids == {0, 1, 2, 3}
        for b in f.blocked:
            assert b.waits_on in pids
            assert b.holds
            assert b.trace_tail  # tracer attached -> journeys recorded
        assert set(f.buffer_occupancy) == held
        assert all(occ == 2 for occ in f.buffer_occupancy.values())

    def test_forensics_without_tracer_has_empty_tails(self):
        collector, _stats = _deadlocked_collector(with_tracer=False)
        assert all(not b.trace_tail for b in collector.forensics.blocked)

    def test_forensics_round_trips_through_jsonl(self, tmp_path):
        collector, stats = _deadlocked_collector()
        path = tmp_path / "dl.jsonl"
        collector.to_jsonl(path, stats=stats)
        records = validate(path)
        forensics = [r for r in records if r["record"] == "forensics"]
        assert len(forensics) == 1
        text = render_forensics(records)
        assert "cyclic wait" in text
        assert "X+@(0, 0)->(1, 0)" in text
        assert "#0" in text and "#3" in text

    def test_v8_experiment_forensics_payload(self, tmp_path):
        # The V8 experiment at its default scale, and its forensics
        # payload read back as strict JSON.
        from repro.experiments import telemetry_demo

        result = telemetry_demo.run()
        result.require()
        path = tmp_path / "forensics.json"
        path.write_text(json.dumps(result.data["forensics"], allow_nan=False))
        record = read_json(path)
        assert REQUIRED_KEYS["forensics"] <= set(record)
        assert len(record["witness_channels"]) == 4
        assert {b["pid"] for b in record["blocked"]} == {0, 1, 2, 3}

    def test_forensics_render_method(self):
        collector, _stats = _deadlocked_collector()
        assert "deadlock forensics" in collector.forensics.render()


class TestRunnerIntegration:
    def test_run_config_metrics_true_attaches_collector(self):
        result = run_point(
            Mesh(3, 3), xy_routing(Mesh(3, 3)),
            RunConfig(cycles=200, metrics=True, sample_every=40),
        )
        assert result.metrics is not None
        assert result.metrics.samples_taken > 0
        assert result.metrics.sample_every == 40

    def test_run_config_default_has_no_metrics(self):
        result = run_point(Mesh(3, 3), xy_routing(Mesh(3, 3)), RunConfig(cycles=100))
        assert result.metrics is None

    def test_ready_collector_is_used_and_finalized(self):
        collector = MetricsCollector(sample_every=25)
        result = run_point(
            Mesh(3, 3), xy_routing(Mesh(3, 3)),
            RunConfig(cycles=150, metrics=collector),
        )
        assert result.metrics is collector
        assert collector._sim is None  # finalized: picklable, detached

    def test_metrics_spec_tokens(self):
        assert spec_token("metrics", None) == "none"
        assert spec_token("metrics", False) == "none"
        assert spec_token("metrics", True) is None
        assert spec_token("metrics", MetricsCollector()) is None
