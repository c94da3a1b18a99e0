"""Unit tests for simulation statistics."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import SimStats


class TestSimStats:
    def test_latency_aggregates(self):
        s = SimStats()
        s.record_delivery(10, 8, 4)
        s.record_delivery(20, 15, 4)
        assert s.avg_total_latency == 15.0
        assert s.avg_network_latency == 11.5
        assert s.max_total_latency == 20
        assert s.packets_delivered == 2
        assert s.flits_delivered == 8

    def test_empty_latency_is_nan(self):
        s = SimStats()
        assert math.isnan(s.avg_total_latency)
        assert math.isnan(s.avg_network_latency)
        assert s.max_total_latency == 0

    def test_percentile_linear_interpolation(self):
        # Linear interpolation between closest ranks (numpy's default):
        # with values 1..100, rank q/100*(n-1) is fractional for most q.
        s = SimStats()
        for v in range(1, 101):
            s.record_delivery(v, v, 1)
        assert s.latency_percentile(50) == 50.5
        assert math.isclose(s.latency_percentile(95), 95.05)
        assert math.isclose(s.latency_percentile(99), 99.01)
        assert s.latency_percentile(0) == 1.0
        assert s.latency_percentile(100) == 100.0

    def test_percentile_interpolates_between_two_values(self):
        s = SimStats()
        s.record_delivery(10, 10, 1)
        s.record_delivery(20, 20, 1)
        assert s.latency_percentile(50) == 15.0
        assert s.latency_percentile(25) == 12.5

    def test_percentile_clamps_out_of_range_q(self):
        s = SimStats()
        s.record_delivery(5, 5, 1)
        s.record_delivery(9, 9, 1)
        assert s.latency_percentile(-10) == 5.0
        assert s.latency_percentile(200) == 9.0

    def test_percentile_empty_is_nan(self):
        assert math.isnan(SimStats().latency_percentile(50))

    def test_to_dict_is_strict_json_when_empty(self):
        # Empty-latency runs: derived metrics serialize as null, never NaN.
        import json

        data = SimStats().to_dict()
        assert data["avg_total_latency"] is None
        assert data["p50_latency"] is None
        assert data["avg_recovery_latency"] is None
        text = json.dumps(data, allow_nan=False)  # raises on NaN/Infinity
        assert "NaN" not in text

    def test_to_dict_derived_fields_round_trip(self):
        s = SimStats()
        s.record_delivery(10, 8, 4)
        s.record_delivery(20, 15, 4)
        data = s.to_dict()
        assert data["avg_total_latency"] == 15.0
        assert data["p50_latency"] == 15.0
        assert data["delivery_ratio"] is not None
        # from_dict drops the derived keys: exact equality survives.
        assert SimStats.from_dict(data) == s

    def test_from_dict_accepts_legacy_payload_without_derived_keys(self):
        s = SimStats()
        s.record_delivery(7, 5, 4)
        legacy = {
            k: v
            for k, v in s.to_dict().items()
            if not k.endswith("_latency") and k not in ("delivery_ratio",)
        }
        assert SimStats.from_dict(legacy) == s

    def test_throughput(self):
        s = SimStats()
        s.cycles = 100
        s.flits_delivered = 400
        assert s.throughput(16) == 0.25
        assert SimStats().throughput(16) == 0.0

    def test_delivery_ratio(self):
        s = SimStats()
        assert s.delivery_ratio == 1.0
        s.packets_injected = 10
        s.packets_delivered = 7
        assert s.delivery_ratio == 0.7

    def test_summary_mentions_deadlock(self):
        s = SimStats()
        s.deadlocked = True
        assert "DEADLOCK" in s.summary(16)
        assert "ok" in SimStats().summary(16)

    def test_fault_counters_default_to_zero(self):
        s = SimStats()
        assert s.faults_injected == 0
        assert s.packets_aborted == 0
        assert s.retransmissions == 0
        assert s.recovered_deadlocks == 0
        assert s.packets_lost == 0
        assert s.recovery_latencies == []

    def test_deadlock_cycle_alias_removed(self):
        s = SimStats()
        s.deadlock_declared_at = 123
        with pytest.raises(AttributeError, match="deadlock_declared_at"):
            s.deadlock_cycle

    def test_avg_recovery_latency(self):
        s = SimStats()
        assert math.isnan(s.avg_recovery_latency)
        s.recovery_latencies.extend([10, 30])
        assert s.avg_recovery_latency == 20.0

    def test_summary_shows_fault_accounting_when_present(self):
        s = SimStats()
        assert "faults" not in s.summary(16)
        s.faults_injected = 2
        s.recovered_deadlocks = 1
        s.packets_lost = 3
        text = s.summary(16)
        assert "faults=2" in text
        assert "recovered=1" in text
        assert "lost=3" in text


def _statistics_derived(stats: SimStats) -> dict:
    """The derived latency fields as ``statistics.mean`` and one sort per
    percentile computed them."""
    from statistics import mean

    def percentile(q):
        values = sorted(t for t, _n in stats.latencies)
        rank = q / 100 * (len(values) - 1)
        lo = math.floor(rank)
        frac = rank - lo
        if frac == 0.0 or lo + 1 >= len(values):
            return float(values[lo])
        return values[lo] + frac * (values[lo + 1] - values[lo])

    def nan_to_none(compute, values):
        return compute(values) if values else None

    return {
        "avg_total_latency": nan_to_none(mean, [t for t, _n in stats.latencies]),
        "avg_network_latency": nan_to_none(mean, [n for _t, n in stats.latencies]),
        "p50_latency": nan_to_none(lambda _v: percentile(50), stats.latencies),
        "p95_latency": nan_to_none(lambda _v: percentile(95), stats.latencies),
        "p99_latency": nan_to_none(lambda _v: percentile(99), stats.latencies),
        "avg_recovery_latency": nan_to_none(mean, stats.recovery_latencies),
    }


class TestToDictMatchesStatistics:
    """``to_dict`` sums integers and sorts once, yet serialises exactly what
    ``statistics.mean`` and per-percentile sorting gave: an integral mean
    stays an ``int`` (``2``, not ``2.0``), so cache bytes are unchanged."""

    @given(
        latencies=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=40
        ),
        recovery=st.lists(st.integers(0, 10**6), max_size=10),
    )
    @example(latencies=[], recovery=[])
    @example(latencies=[(7, 5)], recovery=[9])
    @example(latencies=[(1, 1), (3, 2)], recovery=[1, 3])
    @example(latencies=[(1, 2), (2, 2), (2, 5)], recovery=[1, 2])
    @settings(max_examples=200, deadline=None)
    def test_derived_fields(self, latencies, recovery):
        stats = SimStats(latencies=latencies, recovery_latencies=recovery)
        got = stats.to_dict()
        want = _statistics_derived(stats)
        for key, value in want.items():
            assert type(got[key]) is type(value), key
            assert got[key] == value, key
        assert json.dumps(got) == json.dumps({**got, **want})
        if latencies:
            mean_total = stats.avg_total_latency
            assert type(mean_total) is type(want["avg_total_latency"])
            assert mean_total == want["avg_total_latency"]

    def test_integral_mean_serialises_as_an_int(self):
        stats = SimStats(latencies=[(1, 1), (3, 2)])
        assert stats.avg_total_latency == 2 and type(stats.avg_total_latency) is int
        assert json.dumps(stats.to_dict()["avg_total_latency"]) == "2"
        assert stats.to_dict()["avg_network_latency"] == 1.5
