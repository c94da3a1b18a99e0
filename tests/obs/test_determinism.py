"""Observability must never alter results, cache keys, or seeds.

The contract: tracing, metrics, heartbeats and the ledger are pure
observers.  Enabling any of them produces bit-identical ``SimStats``,
identical spec tokens and cache keys, and rerunning a campaign appends
ledger records with identical outcome digests (no self-drift).
"""

import pytest

from repro import RunConfig, run_point
from repro.obs import RunLedger, Tracer, set_ledger, tracing
from repro.sim.parallel import SweepEngine, cache_key, point_token, sweep_token
from repro.topology import Mesh


@pytest.fixture(autouse=True)
def _no_installed_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_EBDA_LEDGER_DIR", raising=False)
    previous = set_ledger(None)
    yield
    set_ledger(previous)


CONFIG = RunConfig(cycles=150, seed=7, watchdog=300)


class TestTracingDeterminism:
    def test_traced_run_point_identical_stats(self):
        mesh = Mesh(4, 4)
        plain = run_point(mesh, "xy", CONFIG)
        with tracing(Tracer()):
            traced = run_point(mesh, "xy", CONFIG)
        assert traced.stats.to_dict() == plain.stats.to_dict()

    def test_traced_sweep_identical_stats(self):
        mesh = Mesh(4, 4)
        rates = [0.05, 0.1]
        engine = SweepEngine(jobs=1, cache=None)
        plain = engine.sweep(mesh, "xy", rates, CONFIG)
        tracer = Tracer()
        with tracing(tracer):
            traced = engine.sweep(mesh, "xy", rates, CONFIG)
        assert [r.stats.to_dict() for r in traced.results] == [
            r.stats.to_dict() for r in plain.results
        ]
        assert len(tracer) > 0  # the traced run really was traced

    def test_tokens_unaffected_by_active_tracer(self):
        mesh = Mesh(4, 4)
        plain = (
            point_token(mesh, "xy", CONFIG),
            sweep_token(mesh, "xy", [0.05], CONFIG),
            cache_key(mesh, "xy", CONFIG),
        )
        tracer = Tracer()
        with tracing(tracer):
            # Span attrs carry run metadata; none of it may reach the tokens.
            with tracer.span("outer", seed=999, cycles=1):
                traced = (
                    point_token(mesh, "xy", CONFIG),
                    sweep_token(mesh, "xy", [0.05], CONFIG),
                    cache_key(mesh, "xy", CONFIG),
                )
        assert traced == plain
        assert all(token is not None for token in plain)


class TestLedgerDeterminism:
    def test_ledger_does_not_change_stats(self, tmp_path):
        mesh = Mesh(4, 4)
        plain = run_point(mesh, "xy", CONFIG)
        set_ledger(tmp_path)
        try:
            recorded = run_point(mesh, "xy", CONFIG)
        finally:
            set_ledger(None)
        assert recorded.stats.to_dict() == plain.stats.to_dict()
        assert len(RunLedger(tmp_path)) == 1

    def test_rerun_appends_identical_digest(self, tmp_path):
        mesh = Mesh(4, 4)
        set_ledger(tmp_path)
        try:
            run_point(mesh, "xy", CONFIG)
            run_point(mesh, "xy", CONFIG)
        finally:
            set_ledger(None)
        ledger = RunLedger(tmp_path)
        first, second = ledger.records()
        assert first.run_id == second.run_id
        assert first.digest == second.digest
        assert ledger.drift() == []

    def test_sweep_rerun_has_no_self_drift(self, tmp_path):
        mesh = Mesh(4, 4)
        engine = SweepEngine(jobs=1, cache=None)
        points = (
            ("one-rate", [0.05], CONFIG),
            ("two-rate", [0.05, 0.1], RunConfig(cycles=200, seed=1, watchdog=400)),
        )
        for name, rates, config in points:
            ledger = RunLedger(tmp_path / name)
            set_ledger(ledger.directory)
            try:
                engine.sweep(mesh, "xy", rates, config)
                before = ledger.path.read_text()
                engine.sweep(mesh, "xy", rates, config)
            finally:
                set_ledger(None)
            assert ledger.path.read_text().startswith(before)  # appended, not rewritten
            digests = {r.digest for r in ledger.records() if r.kind == "sweep"}
            assert len(digests) == 1
            assert ledger.drift() == []

    def test_wall_time_not_in_identity_or_digest(self, tmp_path):
        # Two runs never share wall time; identity and digest must anyway.
        mesh = Mesh(4, 4)
        set_ledger(tmp_path)
        try:
            run_point(mesh, "xy", CONFIG)
            run_point(mesh, "xy", CONFIG)
        finally:
            set_ledger(None)
        first, second = RunLedger(tmp_path).records()
        assert first.wall_s != second.wall_s or first.wall_s >= 0
        assert first.identity == second.identity
        assert first.digest == second.digest


class TestLedgerIdentity:
    """A point's ledger identity depends on its design and traffic alone."""

    def test_point_token_pins(self):
        # Values computed by the release before observers left the token:
        # unmetered identities must not move.
        from repro.sim import EbdaDesignFactory, FaultEvent, FaultSchedule, RecoveryPolicy
        from repro.topology.classes import rule_for_design

        faulted = RunConfig(
            cycles=300, injection_rate=0.1, seed=1,
            faults=FaultSchedule(
                [FaultEvent(100, "link", link=((1, 1), (2, 1))), FaultEvent(100, "drop")],
                seed=1,
            ),
            recovery=RecoveryPolicy(max_retries=8),
            routing_factory=EbdaDesignFactory(
                "west-first", directions="progressive", fallback="escape"
            ),
        )
        mesh = Mesh(4, 4)
        assert point_token(mesh, "xy", RunConfig()) == "9c2c0711916aba78"
        assert point_token(
            Mesh(3, 3), "west-first", RunConfig(cycles=200, injection_rate=0.2, seed=4)
        ) == "886f2471c921ac4a"
        assert point_token(
            mesh, EbdaDesignFactory("west-first"), faulted, rule_for_design("west-first")
        ) == "18a9a4815ff0feb3"
        assert sweep_token(mesh, "xy", [0.05, 0.1], RunConfig(cycles=200)) == "e882c222f6ac2658"

    def test_observers_leave_identity_but_not_cache_key(self):
        mesh = Mesh(4, 4)
        plain = point_token(mesh, "xy", CONFIG)
        for observed in (
            RunConfig(cycles=150, seed=7, watchdog=300, metrics=True, sample_every=10),
            RunConfig(cycles=150, seed=7, watchdog=300, trace=True),
        ):
            assert point_token(mesh, "xy", observed) == plain
            assert cache_key(mesh, "xy", observed) is None
        assert cache_key(mesh, "xy", CONFIG) is not None

    def test_metered_points_get_distinct_specs_and_no_drift(self, tmp_path, capsys):
        from repro.cli import main

        set_ledger(tmp_path)
        try:
            for mesh, rate in ((Mesh(4, 4), 0.05), (Mesh(4, 4), 0.1),
                               (Mesh(3, 3), 0.05), (Mesh(3, 3), 0.1)):
                run_point(mesh, "xy", RunConfig(cycles=150, injection_rate=rate, metrics=True))
        finally:
            set_ledger(None)
        records = RunLedger(tmp_path).records()
        assert len({r.spec for r in records}) == 4
        assert RunLedger(tmp_path).drift() == []
        assert main(["runs", "diff", "--ledger", str(tmp_path)]) == 0

    def test_unhashable_sweeps_on_two_meshes_do_not_drift(self, tmp_path, capsys):
        from repro.cli import main
        from repro.routing.deterministic import xy_routing

        set_ledger(tmp_path)
        try:
            for mesh in (Mesh(4, 4), Mesh(3, 3)):
                SweepEngine().sweep(mesh, lambda t: xy_routing(t), [0.05], CONFIG)
        finally:
            set_ledger(None)
        first, second = RunLedger(tmp_path).records()
        assert first.spec.startswith("unhashable:")
        assert first.spec != second.spec
        assert main(["runs", "diff", "--ledger", str(tmp_path)]) == 0
        assert "no drift" in capsys.readouterr().out
