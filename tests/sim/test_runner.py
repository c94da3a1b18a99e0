"""Unit tests for the experiment runner."""

from dataclasses import replace

import pytest

from repro.errors import EbdaError, SimulationError
from repro.routing import MinimalFullyAdaptive, xy_routing
import repro
from repro.sim import (
    RunConfig,
    SweepEngine,
    compare_table,
    run_point,
    run_points,
    saturation_rate,
)
from repro.topology import Mesh
from repro.topology.classes import no_classes


class TestRunPoint:
    def test_returns_complete_result(self, mesh4):
        result = run_point(
            mesh4, xy_routing(mesh4), RunConfig(cycles=300, injection_rate=0.05)
        )
        assert result.routing_name == "XY-order"
        assert result.n_nodes == 16
        assert result.stats.packets_delivered > 0
        assert not result.deadlocked
        assert result.avg_latency > 0
        assert "rate=0.050" in result.row()

    def test_reproducible(self, mesh4):
        cfg = RunConfig(cycles=300, injection_rate=0.08, seed=21)
        a = run_point(mesh4, xy_routing(mesh4), cfg)
        b = run_point(mesh4, xy_routing(mesh4), cfg)
        assert a.stats.packets_injected == b.stats.packets_injected
        assert a.stats.latencies == b.stats.latencies


class TestRunPoints:
    def test_results_match_run_point_in_config_order(self, mesh4):
        base = RunConfig(cycles=200, backend="vector", seed=3)
        configs = [
            base.with_rate(0.1),
            replace(base, backend="reference", injection_rate=0.05),
            base.with_rate(0.02),
            replace(base, injection_rate=0.05, buffer_depth=2),
        ]
        results = run_points(mesh4, "xy", configs)
        assert [r.config for r, _seconds in results] == configs
        for config, (result, seconds) in zip(configs, results):
            assert result.stats == run_point(mesh4, "xy", config).stats
            assert seconds > 0
        # The two 4-deep vector points were one batch: equal shares.
        assert results[0][1] == results[2][1]

    def test_first_failing_point_raises(self, mesh4):
        base = RunConfig(cycles=50, backend="vector")
        configs = [
            base,
            replace(base, backend="reference", pattern="no-such-pattern-a"),
            replace(base, pattern="no-such-pattern-b"),
        ]
        with pytest.raises(EbdaError, match="no-such-pattern-a"):
            run_points(mesh4, "xy", configs)
        with pytest.raises(EbdaError, match="no-such-pattern-b"):
            run_points(mesh4, "xy", [base, configs[2]])


class TestCycleRange:
    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_negative_cycles_refused(self, mesh4, backend):
        with pytest.raises(SimulationError, match="cycles must be >= 0"):
            run_point(mesh4, "xy", RunConfig(cycles=-5, injection_rate=0.1, backend=backend))
        with pytest.raises(SimulationError, match="cycles must be >= 0"):
            replace(RunConfig(backend=backend), cycles=-1)

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_zero_cycles_run(self, mesh4, backend):
        result = run_point(mesh4, "xy", RunConfig(cycles=0, injection_rate=0.1, backend=backend))
        assert result.stats.cycles == 0 and result.stats.packets_injected == 0


class TestSweep:
    def test_latency_monotone_with_rate(self, mesh4):
        results = SweepEngine().sweep(
            mesh4,
            lambda t: MinimalFullyAdaptive(t),
            rates=[0.02, 0.20],
            config=RunConfig(cycles=500, seed=2),
        ).results
        assert results[0].avg_latency < results[1].avg_latency

    def test_with_rate_builder(self):
        cfg = RunConfig(injection_rate=0.01)
        assert cfg.with_rate(0.5).injection_rate == 0.5
        assert cfg.injection_rate == 0.01

    def test_keyword_rule_works(self, mesh4):
        results = repro.sweep(
            mesh4, "xy", [0.02], RunConfig(cycles=200, seed=2), rule=no_classes
        ).results
        assert len(results) == 1


class TestSaturation:
    def test_detects_latency_blowup(self, mesh4):
        results = SweepEngine().sweep(
            mesh4,
            lambda t: xy_routing(t),
            rates=[0.02, 0.05, 0.30],
            config=RunConfig(cycles=500, seed=2),
        ).results
        sat = saturation_rate(results)
        assert sat == 0.30

    def test_none_when_unsaturated(self, mesh4):
        results = SweepEngine().sweep(
            mesh4,
            lambda t: xy_routing(t),
            rates=[0.01, 0.02],
            config=RunConfig(cycles=400, seed=2),
        ).results
        assert saturation_rate(results) is None

    def test_empty(self):
        assert saturation_rate([]) is None

    def test_baseline_is_minimum_rate_point(self, mesh4):
        # Regression: the zero-load baseline must come from the
        # minimum-rate point, so a sweep supplied in descending rate order
        # yields the same verdict as the ascending one.
        ascending = SweepEngine().sweep(
            mesh4, "xy", [0.02, 0.05, 0.30], config=RunConfig(cycles=500, seed=2)
        ).results
        descending = list(reversed(ascending))
        assert saturation_rate(ascending) == saturation_rate(descending) == 0.30

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_all_saturated_sweep_reports_its_lowest_rate(self, capsys, backend):
        # Both points sit past saturation (their packets wait far longer
        # than they travel); adding rate 0.01 to the sweep gives 0.2 too.
        from repro.cli import main

        main([
            "sweep", "west-first-vcs", "--mesh", "3x3", "--rates", "0.2,0.32",
            "--cycles", "600", "--length", "8", "--buffers", "2", "--seed", "1",
            "--backend", backend,
        ])
        assert "saturation: 0.2" in capsys.readouterr().out.splitlines()


class TestCompareTable:
    def test_renders_rows(self, mesh4):
        results = SweepEngine().sweep(
            mesh4, lambda t: xy_routing(t), rates=[0.02],
            config=RunConfig(cycles=200, seed=2),
        ).results
        table = compare_table({"xy": results})
        assert "xy" in table and "0.020" in table

    def test_empty_table(self):
        assert compare_table({}) == "(no results)"
