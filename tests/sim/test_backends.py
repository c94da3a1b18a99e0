"""Unit tests for the backend registry and capability checks."""

import pytest

from repro.errors import ConfigError
from repro.sim import (
    BackendInfo,
    NetworkSimulator,
    RunConfig,
    VectorSimulator,
    backends,
    check_run_config,
    resolve_backend,
    simulator_class,
)


class TestRegistry:
    def test_reference_listed_first(self):
        names = [b.name for b in backends()]
        assert names[0] == "reference"
        assert "vector" in names

    def test_every_backend_claims_cycle_exact(self):
        # The cache-key sharing contract rests on this.
        assert all(b.cycle_exact for b in backends())

    def test_resolve_known(self):
        info = resolve_backend("vector")
        assert isinstance(info, BackendInfo)
        assert not info.supports_faults
        assert info.supported_selections == ("first",)

    def test_resolve_unknown_names_alternatives(self):
        with pytest.raises(ConfigError, match="reference"):
            resolve_backend("quantum")

    def test_simulator_class_dispatch(self):
        assert simulator_class("reference") is NetworkSimulator
        assert simulator_class("vector") is VectorSimulator

    def test_to_dict_round_trips_fields(self):
        d = resolve_backend("reference").to_dict()
        assert d["name"] == "reference"
        assert d["supports_metrics"] is True


class TestCheckRunConfig:
    def test_reference_accepts_everything(self):
        info = resolve_backend("reference")
        check_run_config(info, RunConfig(metrics=True, selection="random"))

    def test_vector_accepts_plain_config(self):
        check_run_config(resolve_backend("vector"), RunConfig())

    def test_vector_rejects_recovery(self):
        from repro.sim import RecoveryPolicy

        with pytest.raises(ConfigError, match="recovery"):
            check_run_config(
                resolve_backend("vector"),
                RunConfig(recovery=RecoveryPolicy(max_retries=2)),
            )

    def test_vector_rejects_trace(self):
        assert not resolve_backend("vector").supports_tracer
        with pytest.raises(ConfigError, match="event tracing"):
            check_run_config(resolve_backend("vector"), RunConfig(trace=True))

    def test_vector_accepts_callable_first_policy(self):
        from repro.routing.selection import first_candidate

        check_run_config(resolve_backend("vector"), RunConfig(selection=first_candidate))

    def test_vector_rejects_other_callables(self):
        from repro.routing.selection import random_candidate

        with pytest.raises(ConfigError, match="selection"):
            check_run_config(
                resolve_backend("vector"), RunConfig(selection=random_candidate)
            )


class TestCacheKeySharing:
    def test_backend_absent_from_cache_key(self, mesh4):
        from repro.sim import cache_key

        ref = cache_key(mesh4, "xy", RunConfig(cycles=200, backend="reference"))
        vec = cache_key(mesh4, "xy", RunConfig(cycles=200, backend="vector"))
        assert ref is not None
        assert ref == vec

    def test_vector_point_served_to_reference(self, mesh4, tmp_path):
        from repro.sim import SweepEngine

        engine = SweepEngine(cache=tmp_path)
        cfg = RunConfig(cycles=200, injection_rate=0.05, seed=4)
        first = engine.run_point(mesh4, "xy", RunConfig(**{
            **{f: getattr(cfg, f) for f in ("cycles", "injection_rate", "seed")},
            "backend": "vector",
        }))
        assert not first.cached
        second = engine.run_point(mesh4, "xy", cfg)
        assert second.cached
        assert second.result.stats.to_dict() == first.result.stats.to_dict()


    def test_cache_hit_refused_like_a_miss(self, mesh4, tmp_path):
        from dataclasses import replace

        from repro.sim import SweepEngine

        engine = SweepEngine(cache=tmp_path)
        cfg = RunConfig(cycles=200, selection="random")
        assert not engine.run_point(mesh4, "xy", cfg).cached
        assert engine.run_point(mesh4, "xy", cfg).cached
        with pytest.raises(ConfigError, match="selection"):
            engine.run_point(mesh4, "xy", replace(cfg, backend="vector"))


class TestStageTimesSplit:
    def test_simulate_attributed_per_backend(self, mesh4):
        from repro.sim import SweepEngine

        report = SweepEngine().sweep(
            mesh4, "xy", [0.02, 0.05], RunConfig(cycles=150, backend="vector")
        )
        assert "simulate:vector" in report.stage_times
        assert "simulate:reference" not in report.stage_times
        assert report.stage_times["simulate:vector"] > 0
