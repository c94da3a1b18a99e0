"""Campaign driver: reports, budget, disagreement pipeline, self-check."""

import json

from repro.fuzz import (
    DesignGenerator,
    FuzzDesign,
    Mutation,
    fast_profile,
    load_corpus,
    run_fuzz,
    self_check,
)
from repro.fuzz.shrink import within_witness_bound
from repro.sim.parallel import SweepEngine

FORGED = FuzzDesign(
    "mesh",
    (3, 3),
    "X+ X- Y+ -> Y-",
    mutations=(Mutation("duplicate-pair", partition=0, channels="Y2+ Y2-"),),
    label="valid:forged",
)


class _InjectingGenerator(DesignGenerator):
    """Yields one forged disagreement amid otherwise honest trials."""

    def design_for(self, trial: int) -> FuzzDesign:
        if trial == 2:
            return FORGED
        return super().design_for(trial)


def test_small_campaign_agrees_and_reports(tmp_path):
    report = run_fuzz(10, seed=0, profile=fast_profile())
    assert report.ok
    assert report.runs_completed == 10
    assert sum(report.counts.values()) == 10
    assert "oracles agree" in report.summary()

    path = report.to_jsonl(tmp_path / "report.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 11
    assert lines[-1]["kind"] == "report"
    assert lines[-1]["ok"] is True
    assert all(line["kind"] == "trial" for line in lines[:-1])


def test_campaign_results_match_serial_reference():
    serial = run_fuzz(8, seed=4, profile=fast_profile())
    pooled = run_fuzz(
        8, seed=4, profile=fast_profile(), engine=SweepEngine(jobs=2)
    )
    assert [t.classification for t in serial.trials] == [
        t.classification for t in pooled.trials
    ]


def test_budget_stops_between_batches():
    report = run_fuzz(10_000, seed=0, budget_s=0.0, profile=fast_profile())
    assert report.runs_completed < 10_000


def test_injected_disagreement_is_shrunk_and_persisted(tmp_path):
    report = run_fuzz(
        4,
        seed=0,
        corpus_dir=tmp_path,
        profile=fast_profile(),
        generator=_InjectingGenerator(seed=0),
    )
    assert not report.ok
    assert len(report.disagreements) == 1
    d = report.disagreements[0]
    assert d.trial == 2
    assert d.classification == "valid-design-rejected"
    assert d.original == FORGED
    assert within_witness_bound(d.shrunk.design)
    assert d.shrunk.design.size() < FORGED.size()

    saved = load_corpus(tmp_path)
    assert len(saved) == 1
    assert saved[0].design == d.shrunk.design
    assert saved[0].expect == "valid-design-rejected"
    assert saved[0].origin["trial"] == 2
    assert "HARD DISAGREEMENTS" in report.summary()


def test_self_check_passes():
    ok, message = self_check(fast_profile())
    assert ok, message
    assert "shrunk" in message


class TestBudgetCut:
    """A budget cut runs one batch and reads ``interrupted`` everywhere."""

    @staticmethod
    def _cut_campaign(tmp_path, monkeypatch, **kwargs):
        from repro.obs import HeartbeatWriter, RunLedger, set_ledger

        monkeypatch.delenv("REPRO_EBDA_LEDGER_DIR", raising=False)
        ledger = RunLedger(tmp_path / "ledger")
        heartbeat = HeartbeatWriter("fuzz-0", "fuzz", 100, tmp_path / "beats")
        previous = set_ledger(ledger)
        try:
            report = run_fuzz(
                100, seed=0, budget_s=0.0, profile=fast_profile(),
                heartbeat=heartbeat, **kwargs,
            )
        finally:
            set_ledger(previous)
        (record,) = ledger.records()
        return report, json.loads(heartbeat.path.read_text()), record

    def test_zero_budget_runs_one_batch_and_is_interrupted(self, tmp_path, monkeypatch):
        report, beat, record = self._cut_campaign(tmp_path, monkeypatch)
        assert report.runs_completed == 8
        assert len(report.trials) == 8
        assert beat["state"] == "interrupted" and beat["done"] == 8
        assert record.kind == "fuzz" and record.outcome == "interrupted"

    def test_disagreement_outranks_interrupted(self, tmp_path, monkeypatch):
        report, beat, record = self._cut_campaign(
            tmp_path, monkeypatch, generator=_InjectingGenerator(seed=0)
        )
        assert report.runs_completed == 8 and not report.ok
        assert beat["state"] == "interrupted"
        assert record.outcome == "disagreement"

    def test_cut_report_says_interrupted(self, tmp_path, monkeypatch):
        report, _beat, _record = self._cut_campaign(tmp_path, monkeypatch)
        assert report.interrupted and report.ok
        assert "8/100 trials [interrupted]" in report.summary()
        line = json.loads(report.to_jsonl(tmp_path / "r.jsonl").read_text().splitlines()[-1])
        assert line["kind"] == "report" and line["interrupted"] is True
        full = run_fuzz(4, seed=0, budget_s=0.0, profile=fast_profile())
        assert not full.interrupted and "4/4 trials [complete]" in full.summary()
        assert json.loads(full.to_jsonl(tmp_path / "f.jsonl").read_text().splitlines()[-1])[
            "interrupted"
        ] is False

    def test_full_campaign_is_done(self, tmp_path):
        from repro.obs import HeartbeatWriter

        heartbeat = HeartbeatWriter("fuzz-0", "fuzz", 4, tmp_path)
        report = run_fuzz(4, seed=0, budget_s=0.0, profile=fast_profile(),
                          heartbeat=heartbeat)
        assert report.runs_completed == 4
        assert json.loads(heartbeat.path.read_text())["state"] == "done"
