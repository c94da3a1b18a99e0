"""SweepEngine: parallel fan-out, determinism, and the result cache."""

import json

import pytest

from repro.sim import (
    ResultCache,
    RunConfig,
    SweepEngine,
    cache_key,
    default_cache_dir,
)
from repro.sim.parallel import topology_token
from repro.topology import Mesh
from repro.topology.classes import no_classes

RATES = [0.02, 0.06]


def _config(**overrides) -> RunConfig:
    base = dict(cycles=250, packet_length=4, buffer_depth=4, seed=7)
    base.update(overrides)
    return RunConfig(**base)


class TestDeterminism:
    def test_jobs4_matches_jobs1_bitwise(self, mesh4):
        serial = SweepEngine(jobs=1).sweep(mesh4, "west-first", RATES, _config())
        fanned = SweepEngine(jobs=4).sweep(mesh4, "west-first", RATES, _config())
        assert [r.stats for r in serial.results] == [r.stats for r in fanned.results]
        assert [r.routing_name for r in serial.results] == [
            r.routing_name for r in fanned.results
        ]

    def test_parallel_preserves_point_order(self, mesh4):
        report = SweepEngine(jobs=4).sweep(mesh4, "xy", RATES, _config())
        assert [r.config.injection_rate for r in report.results] == RATES

    def test_unpicklable_pattern_falls_back_in_process(self, mesh4):
        cfg = _config(pattern=lambda src, nodes, rng: nodes[0] if src != nodes[0] else nodes[-1])
        report = SweepEngine(jobs=4).sweep(mesh4, "xy", RATES, cfg)
        assert report.jobs == 1  # degraded to the serial path
        assert len(report.results) == len(RATES)
        assert all(r.stats.packets_delivered > 0 for r in report.results)

    def test_jobs2_sweep_matches_serial(self, mesh4):
        direct = SweepEngine().sweep(mesh4, "xy", RATES, _config()).results
        engined = SweepEngine(jobs=2).sweep(mesh4, "xy", RATES, _config()).results
        assert [r.stats for r in direct] == [r.stats for r in engined]


class TestResultCache:
    def test_cold_then_warm(self, mesh4, tmp_path):
        engine = SweepEngine(cache=tmp_path / "cache")
        cold = engine.sweep(mesh4, "west-first", RATES, _config())
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(RATES)
        assert cold.cycles_executed > 0

        warm = engine.sweep(mesh4, "west-first", RATES, _config())
        assert warm.cache_hits == len(RATES)
        assert warm.cache_misses == 0
        assert warm.cycles_executed == 0  # zero simulation on a warm rerun
        assert [r.stats for r in warm.results] == [r.stats for r in cold.results]

    def test_cache_shared_across_engines(self, mesh4, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepEngine(cache=cache).sweep(mesh4, "xy", RATES, _config())
        warm = SweepEngine(jobs=4, cache=cache).sweep(mesh4, "xy", RATES, _config())
        assert warm.cache_hits == len(RATES)

    def test_differing_config_misses(self, mesh4, tmp_path):
        engine = SweepEngine(cache=tmp_path / "cache")
        engine.sweep(mesh4, "xy", RATES, _config(seed=7))
        other = engine.sweep(mesh4, "xy", RATES, _config(seed=8))
        assert other.cache_hits == 0

    def test_differing_topology_misses(self, tmp_path):
        engine = SweepEngine(cache=tmp_path / "cache")
        engine.sweep(Mesh(4, 4), "xy", RATES, _config())
        other = engine.sweep(Mesh(4, 5), "xy", RATES, _config())
        assert other.cache_hits == 0

    def test_unpicklable_points_never_cached(self, mesh4, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cfg = _config(pattern=lambda src, nodes, rng: nodes[0] if src != nodes[0] else nodes[-1])
        report = SweepEngine(cache=cache).sweep(mesh4, "xy", RATES, cfg)
        assert report.cache_misses == len(RATES)
        assert len(cache) == 0  # nothing written: lambda has no stable token

    def test_atomic_entries_roundtrip(self, mesh4, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = SweepEngine(cache=cache)
        outcome = engine.run_point(mesh4, "xy", _config())
        assert outcome.key in cache
        again = engine.run_point(mesh4, "xy", _config())
        assert again.cached
        assert again.result.stats == outcome.result.stats

    @pytest.mark.parametrize(
        "body",
        ["{not json", "[]", '"x"', '{"schema": 1}'],
        ids=["not-json", "list", "string", "schema-only"],
    )
    def test_corrupt_entry_ignored(self, mesh4, tmp_path, body):
        cache = ResultCache(tmp_path / "cache")
        engine = SweepEngine(cache=cache)
        outcome = engine.run_point(mesh4, "xy", _config())
        (tmp_path / "cache" / f"{outcome.key}.json").write_text(body)
        assert cache.get(outcome.key, _config()) is None
        again = engine.run_point(mesh4, "xy", _config())
        assert not again.cached  # re-simulated, not crashed

    def test_clear(self, mesh4, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepEngine(cache=cache).sweep(mesh4, "xy", RATES, _config())
        assert len(cache) == len(RATES)
        assert cache.clear() == len(RATES)
        assert len(cache) == 0

    def test_default_dir_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EBDA_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"


class TestCacheKey:
    def test_stable_for_equal_inputs(self, mesh4):
        a = cache_key(mesh4, "xy", _config())
        b = cache_key(Mesh(4, 4), "xy", _config())
        assert a is not None and a == b

    def test_sensitive_to_every_input(self, mesh4):
        base = cache_key(mesh4, "xy", _config())
        assert cache_key(mesh4, "yx", _config()) != base
        assert cache_key(mesh4, "xy", _config(cycles=251)) != base
        assert cache_key(Mesh(5, 4), "xy", _config()) != base

    def test_none_for_unresolvable_callables(self, mesh4):
        assert cache_key(mesh4, lambda t: None, _config()) is None
        assert cache_key(mesh4, "xy", _config(pattern=lambda n, rng: 0)) is None

    def test_rule_participates(self, mesh4):
        from repro.topology.classes import NAMED_RULES

        other = next(r for n, r in sorted(NAMED_RULES.items()) if r is not no_classes)
        assert cache_key(mesh4, "xy", _config(), other) != cache_key(
            mesh4, "xy", _config(), no_classes
        )

    def test_topology_token_reflects_links(self, mesh4):
        from repro.topology import FaultyMesh

        degraded = FaultyMesh(Mesh(4, 4), failed=[((0, 0), (1, 0))])
        assert topology_token(degraded) != topology_token(mesh4)


class TestSweepReport:
    def test_to_dict_shape(self, mesh4, tmp_path):
        engine = SweepEngine(cache=tmp_path / "cache")
        report = engine.sweep(mesh4, "west-first", RATES, _config())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_points"] == len(RATES)
        assert payload["cache_misses"] == len(RATES)
        assert payload["cycles_executed"] == report.cycles_executed
        assert len(payload["points"]) == len(RATES)
        point = payload["points"][0]
        assert point["routing"] == "west-first"
        assert point["injection_rate"] == RATES[0]
        assert point["cached"] is False
        assert point["wall_time"] > 0

    def test_summary_mentions_cache(self, mesh4, tmp_path):
        engine = SweepEngine(cache=tmp_path / "cache")
        engine.sweep(mesh4, "xy", RATES, _config())
        warm = engine.sweep(mesh4, "xy", RATES, _config())
        assert f"cache {len(RATES)} hit/0 miss" in warm.summary()
        assert "0 sim cycles" in warm.summary()


class TestEngineValidation:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepEngine(jobs=0)

    def test_rejects_unknown_routing_early(self, mesh4):
        from repro.errors import RoutingError

        with pytest.raises(RoutingError):
            SweepEngine().sweep(mesh4, object(), RATES, _config())

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_accepts_a_ready_routing_function(self, mesh4, backend):
        from repro.sim.specs import resolve_routing_factory

        routing = resolve_routing_factory("west-first")(mesh4)
        config = _config(backend=backend)
        swept = SweepEngine().sweep(mesh4, routing, RATES, config)
        ran = SweepEngine().run_many(
            [(mesh4, routing, config.with_rate(rate)) for rate in RATES]
        )
        assert [r.stats.to_dict() for r in swept.results] == [
            r.stats.to_dict() for r in ran.results
        ]
        assert [r.config.injection_rate for r in swept.results] == RATES
        assert all(r.stats.packets_delivered > 0 for r in swept.results)


class TestTelemetry:
    def test_stage_times_in_report_and_dict(self, mesh4):
        report = SweepEngine(jobs=1).sweep(mesh4, "xy", RATES, _config())
        assert set(report.stage_times) == {
            "cache_read", "spawn", "simulate", "simulate:reference",
            "cache_write",
        }
        assert all(v >= 0.0 for v in report.stage_times.values())
        assert report.stage_times["simulate"] > 0.0
        assert report.stage_times["simulate:reference"] > 0.0
        payload = report.to_dict()
        assert payload["stage_times"] == report.stage_times

    def test_metered_points_are_uncacheable(self, mesh4, tmp_path):
        cfg = _config(metrics=True)
        assert cache_key(mesh4, "xy", cfg) is None
        engine = SweepEngine(jobs=1, cache=tmp_path / "cache")
        first = engine.sweep(mesh4, "xy", RATES, cfg)
        assert first.cache_hits == 0
        second = engine.sweep(mesh4, "xy", RATES, cfg)
        assert second.cache_hits == 0  # metered runs never hit the cache

    def test_disabled_metrics_hashes_like_absent(self, mesh4):
        # metrics=False/None are cacheable and share a key
        assert cache_key(mesh4, "xy", _config(metrics=False)) == cache_key(
            mesh4, "xy", _config()
        )

    def test_per_point_metrics_summary_in_to_dict(self, mesh4):
        report = SweepEngine(jobs=1).sweep(
            mesh4, "xy", RATES, _config(metrics=True, sample_every=50)
        )
        payload = report.to_dict()
        assert len(payload["points"]) == len(RATES)
        for entry in payload["points"]:
            summary = entry["metrics"]
            assert summary["samples"] > 0
            assert summary["sample_every"] == 50
            assert summary["mean_link_utilization"] is not None
        json.dumps(payload, allow_nan=False)  # strict JSON end to end

    def test_metered_points_survive_process_pool(self, mesh4):
        report = SweepEngine(jobs=2).sweep(
            mesh4, "xy", RATES, _config(metrics=True, sample_every=50)
        )
        for outcome in report.results:
            collector = outcome.metrics
            assert collector is not None
            assert collector.samples_taken > 0
            assert collector._sim is None  # finalized, hence picklable
