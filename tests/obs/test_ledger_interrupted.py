"""``repro runs diff`` skips runs their budget cut.

A budget-cut ``chaos`` or ``fuzz`` run records outcome ``interrupted``
under the same identity as the full run, but its digest covers only the
trials it ran; comparing it with a complete run would report drift where
nothing drifted.
"""

import pytest

from repro.cli import main
from repro.obs import RunLedger, RunRecord, set_ledger

CHAOS = ["chaos", "--trials", "12", "--seed", "0", "--cycles", "200", "--quiet"]
FUZZ = ["fuzz", "--fast", "--runs", "10", "--seed", "0", "--quiet"]


@pytest.fixture(autouse=True)
def _no_ambient_ledger(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EBDA_LEDGER_DIR", raising=False)
    monkeypatch.setenv("REPRO_EBDA_CACHE_DIR", str(tmp_path / "cache"))
    previous = set_ledger(None)
    yield
    set_ledger(previous)


def _outcomes(ledger_dir):
    return [r.outcome for r in RunLedger(ledger_dir).records()]


class TestRunsDiffSkipsInterrupted:
    def test_chaos_full_cut_and_resumed(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        resume = ["--checkpoint-dir", str(tmp_path / "ck"), "--ledger", ledger]
        assert main(CHAOS + ["--ledger", ledger]) == 0
        assert main(CHAOS + resume + ["--budget-s", "0"]) == 1
        assert main(CHAOS + resume) == 0
        assert _outcomes(ledger) == ["ok", "interrupted", "ok"]
        capsys.readouterr()
        assert main(["runs", "diff", "--ledger", ledger]) == 0
        assert "no drift across 3 run(s)" in capsys.readouterr().out

    def test_fuzz_cut_beside_full(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        assert main(FUZZ + ["--ledger", ledger]) == 0
        assert main(FUZZ + ["--ledger", ledger, "--budget-s", "0"]) == 0
        assert _outcomes(ledger) == ["ok", "interrupted"]
        capsys.readouterr()
        assert main(["runs", "diff", "--ledger", ledger]) == 0


class TestDriftStillSeen:
    def test_complete_record_with_changed_digest_drifts(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for digest, outcome in (("aaaa", "ok"), ("cccc", "interrupted"), ("bbbb", "ok")):
            ledger.append(RunRecord(kind="chaos", spec="s", digest=digest, outcome=outcome))
        rows = ledger.drift()
        assert len(rows) == 1
        assert [v["digest"] for v in rows[0]["variants"]] == ["aaaa", "bbbb"]

    def test_interrupted_records_alone_never_drift(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for digest in ("aaaa", "bbbb"):
            ledger.append(RunRecord(kind="fuzz", spec="s", digest=digest, outcome="interrupted"))
        assert ledger.drift() == []
