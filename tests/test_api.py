"""The stable top-level facade: repro.run_point / repro.sweep / repro.verify."""

import importlib

import pytest

import repro
import repro.sim
from repro.core import PartitionSequence, catalog
from repro.errors import EbdaError
from repro.routing import WestFirst
from repro.sim import RunConfig, SweepReport


def _assert_canonical(facade, name):
    """``facade.name`` is the object its defining module binds, and ``dir`` lists it."""
    obj = getattr(facade, name)
    (home,) = (module for module, names in facade._EXPORTS.items() if name in names)
    assert obj is getattr(importlib.import_module(home), name)
    defining = getattr(obj, "__module__", "")
    if defining.startswith("repro."):
        assert getattr(importlib.import_module(defining), name) is obj
    assert name in dir(facade)


#: ``from repro.sim import *``, run once.
SIM_STAR: dict = {}
exec("from repro.sim import *", SIM_STAR)


class TestFacadeExports:
    def test_lazy_attributes_resolve(self):
        for name in sorted(set(repro.__all__) - set(vars(repro))):
            _assert_canonical(repro, name)

    @pytest.mark.parametrize("name", repro.sim.__all__)
    def test_sim_facade_exports(self, name):
        _assert_canonical(repro.sim, name)
        assert SIM_STAR[name] is getattr(repro.sim, name)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.nonesuch

    def test_facade_names_are_canonical(self):
        from repro.sim.parallel import SweepEngine
        from repro.sim.runner import RunConfig as CanonicalConfig

        assert repro.RunConfig is CanonicalConfig
        assert repro.SweepEngine is SweepEngine


class TestRunPoint:
    def test_named_spec(self, mesh4):
        result = repro.run_point(mesh4, "xy", RunConfig(cycles=200, seed=3))
        assert not result.deadlocked
        assert result.stats.packets_delivered > 0

    def test_default_config(self, mesh4):
        result = repro.run_point(mesh4, "west-first", RunConfig(cycles=150))
        assert result.routing_name == "west-first"

    def test_cached(self, mesh4, tmp_path):
        cfg = RunConfig(cycles=200, seed=3)
        cold = repro.run_point(mesh4, "xy", cfg, cache=tmp_path / "c")
        warm = repro.run_point(mesh4, "xy", cfg, cache=tmp_path / "c")
        assert warm.stats == cold.stats


class TestSweep:
    def test_returns_report(self, mesh4):
        report = repro.sweep(
            mesh4, "xy", [0.02, 0.05], RunConfig(cycles=200, seed=3)
        )
        assert isinstance(report, SweepReport)
        assert len(report.results) == 2
        assert report.cache_misses == 2  # no cache configured: all "misses"

    def test_jobs_and_cache(self, mesh4, tmp_path):
        cfg = RunConfig(cycles=200, seed=3)
        cold = repro.sweep(
            mesh4, "west-first", [0.02, 0.05], cfg, jobs=2, cache=tmp_path / "c"
        )
        warm = repro.sweep(
            mesh4, "west-first", [0.02, 0.05], cfg, jobs=2, cache=tmp_path / "c"
        )
        assert warm.cache_hits == 2
        assert warm.cycles_executed == 0
        assert [r.stats for r in warm.results] == [r.stats for r in cold.results]


class TestVerify:
    def test_catalog_name_implies_rule(self, mesh4):
        verdict = repro.verify("west-first", mesh4)
        assert verdict.acyclic

    def test_arrow_notation(self, mesh4):
        verdict = repro.verify("X- -> X+ Y+ Y-", mesh4)
        assert verdict.acyclic

    def test_partition_sequence(self, mesh4):
        design = catalog.north_last()
        assert repro.verify(design, mesh4).acyclic

    def test_turnset(self, mesh4):
        from repro.core import extract_turns

        turnset = extract_turns(catalog.p3_west_first())
        assert repro.verify(turnset, mesh4).acyclic

    def test_routing_function(self, mesh4):
        assert repro.verify(WestFirst(mesh4), mesh4).acyclic

    def test_unverifiable_subject(self, mesh4):
        with pytest.raises(EbdaError, match="cannot verify"):
            repro.verify(42, mesh4)

    def test_unknown_design_string(self, mesh4):
        with pytest.raises(EbdaError):
            repro.verify("not a design ->", mesh4)

    def test_all_catalog_designs_verify(self, mesh4):
        for name in sorted(catalog.NAMED_DESIGNS):
            assert repro.verify(name, mesh4).acyclic, name

    def test_explicit_rule_override(self, torus4):
        from repro.core.torus_designs import dateline_design
        from repro.topology.classes import dateline

        verdict = repro.verify(dateline_design(2), torus4, rule=dateline)
        assert verdict.acyclic
