"""Cross-subsystem integration: every instrumented path emits balanced
spans, beats heartbeats, and appends ledger records — without changing
what the subsystem computes."""

import pytest

from repro.analyze import Analyzer, DesignUnit
from repro.chaos import CampaignConfig, ChaosCampaign
from repro.fuzz import fast_profile, run_fuzz
from repro.obs import (
    HeartbeatWriter,
    RunLedger,
    Tracer,
    check_balance,
    load_heartbeat,
    load_trace,
    set_ledger,
    tracing,
)
from repro.sim import RunConfig
from repro.sim.parallel import ResultCache, SweepEngine
from repro.topology import Mesh

CONFIG = RunConfig(cycles=150, seed=3, watchdog=300)
#: Three batches of eight at jobs=1, the last one short.
FUZZ_TRIALS = 20


@pytest.fixture(autouse=True)
def _clean_obs(monkeypatch):
    monkeypatch.delenv("REPRO_EBDA_LEDGER_DIR", raising=False)
    previous = set_ledger(None)
    yield
    set_ledger(previous)


def spans_named(tracer, name):
    return [
        e for e in tracer.events if e["event"] == "span-start" and e["name"] == name
    ]


class TestSweepInstrumentation:
    def test_traced_sweep_is_balanced_with_stage_spans(self, tmp_path):
        engine = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "cache"))
        tracer = Tracer()
        with tracing(tracer):
            engine.sweep(Mesh(4, 4), "xy", [0.05, 0.1], CONFIG)
        check_balance(tracer.events)
        assert len(spans_named(tracer, "sweep.run_many")) == 1
        assert spans_named(tracer, "sweep.simulate")
        assert spans_named(tracer, "sweep.cache_read")
        assert spans_named(tracer, "sweep.cache_write")

    def test_stage_summary_lists_simulate_backend(self):
        engine = SweepEngine(jobs=1, cache=None)
        report = engine.sweep(Mesh(4, 4), "xy", [0.05], CONFIG)
        summary = report.stage_summary()
        assert summary.startswith("stages:")
        assert "simulate=" in summary
        assert f"simulate:{CONFIG.backend}=" in summary

    def test_sweep_appends_ledger_record(self, tmp_path):
        set_ledger(tmp_path)
        try:
            SweepEngine(jobs=1, cache=None).sweep(Mesh(4, 4), "xy", [0.05], CONFIG)
        finally:
            set_ledger(None)
        records = RunLedger(tmp_path).records()
        assert [r.kind for r in records] == ["sweep"]
        assert records[0].outcome == "ok"
        assert records[0].backend == CONFIG.backend


class TestFuzzInstrumentation:
    def test_traced_fuzz_balanced_with_campaign_and_batches(self, tmp_path):
        tracer = Tracer()
        set_ledger(tmp_path)
        try:
            with tracing(tracer):
                report = run_fuzz(FUZZ_TRIALS, seed=0, profile=fast_profile())
        finally:
            set_ledger(None)
        assert report.ok, report.summary()
        assert report.runs_completed == FUZZ_TRIALS
        check_balance(tracer.events)
        # The exported trace reads back as strict, balanced span JSONL.
        tracer.to_jsonl(tmp_path / "spans.jsonl")
        check_balance(load_trace(tmp_path / "spans.jsonl"))
        campaign = spans_named(tracer, "fuzz.campaign")
        assert len(campaign) == 1
        assert spans_named(tracer, "fuzz.batch")
        end = next(
            e
            for e in tracer.events
            if e["event"] == "span-end" and e["name"] == "fuzz.campaign"
        )
        assert end["attrs"]["completed"] == FUZZ_TRIALS
        records = RunLedger(tmp_path).records()
        assert [r.kind for r in records] == ["fuzz"]
        assert records[0].outcome == "ok"

    def test_fuzz_progress_and_heartbeat_per_batch(self, tmp_path):
        lines = []
        writer = HeartbeatWriter("fuzz-0", "fuzz", 6, tmp_path)
        run_fuzz(6, seed=0, profile=fast_profile(),
                 progress=lines.append, heartbeat=writer)
        assert lines and all("trials" in line for line in lines)
        final = load_heartbeat(writer.path)
        assert final["state"] == "done"
        assert final["done"] == 6


class TestChaosInstrumentation:
    def test_traced_chaos_balanced_with_ledger_and_heartbeat(self, tmp_path):
        config = CampaignConfig(trials=4, seed=0, mesh=(4, 4), cycles=200)
        tracer = Tracer()
        writer = HeartbeatWriter(config.token(), "chaos", 4, tmp_path / "hb")
        lines = []
        set_ledger(tmp_path / "ledger")
        try:
            with tracing(tracer):
                report = ChaosCampaign(config).run(
                    progress=lines.append, heartbeat=writer
                )
        finally:
            set_ledger(None)
        assert report.trials_completed == 4
        check_balance(tracer.events)
        assert len(spans_named(tracer, "chaos.campaign")) == 1
        assert spans_named(tracer, "chaos.batch")
        assert lines
        final = load_heartbeat(writer.path)
        assert final["state"] == "done"
        assert final["done"] == 4
        records = RunLedger(tmp_path / "ledger").records()
        assert [r.kind for r in records] == ["chaos"]
        assert records[0].spec == config.token()

    def test_chaos_rerun_digest_is_stable(self, tmp_path):
        config = CampaignConfig(trials=4, seed=0, mesh=(4, 4), cycles=200)
        set_ledger(tmp_path)
        try:
            ChaosCampaign(config).run()
            ChaosCampaign(config).run()
        finally:
            set_ledger(None)
        ledger = RunLedger(tmp_path)
        first, second = ledger.records()
        assert first.digest == second.digest
        assert ledger.drift() == []


class TestLintInstrumentation:
    def test_lint_unit_span_and_counters(self):
        tracer = Tracer()
        with tracing(tracer):
            report = Analyzer().run(DesignUnit.from_sequence("X+ -> Y+", name="ok"))
        check_balance(tracer.events)
        starts = spans_named(tracer, "lint.unit")
        assert len(starts) == 1
        assert starts[0]["attrs"]["unit"] == "ok"
        end = next(e for e in tracer.events if e["event"] == "span-end")
        assert end["attrs"]["diagnostics"] == len(report.diagnostics)
