"""Unit tests for the run ledger: identity, drift, append-only JSONL."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import EbdaError
from repro.obs import (
    RunLedger,
    RunRecord,
    current_ledger,
    outcome_digest,
    record_run,
    set_ledger,
)


@pytest.fixture(autouse=True)
def _no_installed_ledger():
    previous = set_ledger(None)
    yield
    set_ledger(previous)


class TestOutcomeDigest:
    def test_deterministic_and_order_free(self):
        assert outcome_digest({"a": 1, "b": 2}) == outcome_digest({"b": 2, "a": 1})

    def test_different_payloads_differ(self):
        assert outcome_digest({"a": 1}) != outcome_digest({"a": 2})

    def test_rejects_non_json(self):
        with pytest.raises(EbdaError, match="strict-JSON"):
            outcome_digest(object())
        with pytest.raises(EbdaError, match="strict-JSON"):
            outcome_digest(float("inf"))


class TestRunRecord:
    def test_unknown_kind_rejected(self):
        with pytest.raises(EbdaError, match="unknown run kind"):
            RunRecord(kind="dance", spec="x")

    def test_run_id_covers_identity_not_outcome(self):
        a = RunRecord(kind="sweep", spec="s", seed=1, outcome="ok", wall_s=1.0)
        b = RunRecord(kind="sweep", spec="s", seed=1, outcome="deadlock", wall_s=9.0)
        assert a.run_id == b.run_id
        assert a.run_id != RunRecord(kind="sweep", spec="s", seed=2).run_id

    def test_run_id_changes_with_versions(self):
        a = RunRecord(kind="fuzz", spec="s", versions={"repro": "1.0"})
        b = RunRecord(kind="fuzz", spec="s", versions={"repro": "2.0"})
        assert a.run_id != b.run_id
        assert a.identity == b.identity  # the drift group key is version-free

    def test_dict_round_trip(self):
        record = RunRecord(kind="chaos", spec="tok", backend="vector", seed=3,
                           outcome="ok", digest="ab" * 8, wall_s=1.5,
                           created_at=123.0)
        again = RunRecord.from_dict(record.to_dict())
        assert again == record
        assert again.run_id == record.run_id

    def test_tampered_line_detected(self):
        data = RunRecord(kind="lint", spec="x").to_dict()
        data["spec"] = "y"  # edit the line without recomputing run_id
        with pytest.raises(EbdaError, match="id mismatch"):
            RunRecord.from_dict(data)

    def test_wrong_schema_rejected(self):
        data = RunRecord(kind="lint", spec="x").to_dict()
        data["schema"] = 99
        with pytest.raises(EbdaError, match="schema"):
            RunRecord.from_dict(data)


class TestRunLedger:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(RunRecord(kind="sweep", spec="a"))
        ledger.append(RunRecord(kind="fuzz", spec="b"))
        records = ledger.records()
        assert [r.kind for r in records] == ["sweep", "fuzz"]
        assert len(ledger) == 2
        assert all(r.created_at > 0 for r in records)

    def test_append_only_jsonl_on_disk(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(RunRecord(kind="sweep", spec="a"))
        before = ledger.path.read_text()
        ledger.append(RunRecord(kind="sweep", spec="b"))
        assert ledger.path.read_text().startswith(before)

    def test_find_by_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path)
        record = ledger.append(RunRecord(kind="chaos", spec="tok"))
        assert ledger.find(record.run_id[:6]) == [record]
        assert ledger.find("ffffff" * 3) == []

    def test_corrupt_line_raises(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(RunRecord(kind="sweep", spec="a"))
        with ledger.path.open("a") as fh:
            fh.write("{broken\n")
        with pytest.raises(EbdaError, match="not valid JSON"):
            ledger.records()

    def test_empty_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path)
        assert ledger.records() == []
        assert ledger.drift() == []


class TestDrift:
    def test_version_drift_detected(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(RunRecord(kind="sweep", spec="s", digest="aaaa",
                                versions={"repro": "1.0", "python": "3"}))
        ledger.append(RunRecord(kind="sweep", spec="s", digest="bbbb",
                                versions={"repro": "2.0", "python": "3"}))
        rows = ledger.drift()
        assert len(rows) == 1
        assert rows[0]["spec"] == "s"
        assert [v["digest"] for v in rows[0]["variants"]] == ["aaaa", "bbbb"]

    def test_stable_digest_is_not_drift(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for version in ("1.0", "2.0"):
            ledger.append(RunRecord(kind="sweep", spec="s", digest="aaaa",
                                    versions={"repro": version, "python": "3"}))
        assert ledger.drift() == []

    def test_same_version_nondeterminism_is_drift(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for digest in ("aaaa", "bbbb"):
            ledger.append(RunRecord(kind="chaos", spec="s", digest=digest,
                                    versions={"repro": "1.0", "python": "3"}))
        rows = ledger.drift()
        assert len(rows) == 1
        assert len(rows[0]["variants"]) == 2

    def test_distinct_identities_do_not_group(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(RunRecord(kind="sweep", spec="s", seed=1, digest="aaaa"))
        ledger.append(RunRecord(kind="sweep", spec="s", seed=2, digest="bbbb"))
        assert ledger.drift() == []


class TestCurrentLedger:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EBDA_LEDGER_DIR", raising=False)
        assert current_ledger() is None
        assert record_run("sweep", spec="x") is None

    def test_env_var_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EBDA_LEDGER_DIR", str(tmp_path))
        record = record_run("fuzz", spec="x", payload={"n": 1}, wall_s=0.5)
        assert record is not None
        assert RunLedger(tmp_path).records() == [record]

    def test_set_ledger_overrides_and_restores(self, tmp_path):
        installed = RunLedger(tmp_path)
        previous = set_ledger(installed)
        try:
            assert current_ledger() is installed
            record_run("lint", spec="x", payload=["EBDA001"])
            assert len(installed) == 1
        finally:
            set_ledger(previous)

    def test_set_ledger_accepts_path(self, tmp_path):
        previous = set_ledger(tmp_path)
        try:
            assert current_ledger().directory == tmp_path
        finally:
            set_ledger(previous)

    def test_payload_digested_not_stored(self, tmp_path):
        previous = set_ledger(tmp_path)
        try:
            record_run("chaos", spec="x", payload={"secret": list(range(100))})
        finally:
            set_ledger(previous)
        line = json.loads(RunLedger(tmp_path).path.read_text())
        assert "payload" not in line
        assert line["digest"] == outcome_digest({"secret": list(range(100))})

    def test_default_dirs_do_not_load_the_simulator(self, tmp_path):
        # The ledger and heartbeat directories default under the cache
        # root; resolving them must not import repro.sim (and numpy).
        code = (
            "import sys\n"
            "from repro.obs.heartbeat import default_heartbeat_dir\n"
            "from repro.obs.ledger import default_ledger_dir\n"
            "print(default_ledger_dir().parent == default_heartbeat_dir().parent)\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.sim')))\n"
        )
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("REPRO_EBDA_LEDGER_DIR", "REPRO_EBDA_HEARTBEAT_DIR")
        }
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH", "")]
        )
        env["REPRO_EBDA_CACHE_DIR"] = str(tmp_path)
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout.split("\n")[:2] == ["True", "[]"]
