"""Unit tests for Monte-Carlo chaos campaigns and their checkpoints."""

import json

import pytest

from repro.chaos import (
    CampaignCheckpoint,
    CampaignConfig,
    ChaosCampaign,
    derive_trial,
    trial_record_bytes,
)
from repro.chaos.campaign import NAMED_RECOVERY_POLICIES, run_trial
from repro.errors import EbdaError, SimulationError
from repro.sim.parallel import SweepEngine

#: Small but non-trivial: covers every policy and several fault counts.
SMALL = CampaignConfig(trials=8, seed=0, mesh=(4, 4), cycles=200)


class TestCampaignConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            CampaignConfig(trials=0)
        with pytest.raises(SimulationError):
            CampaignConfig(cycles=0)
        with pytest.raises(SimulationError):
            CampaignConfig(workloads=())
        with pytest.raises(EbdaError):
            CampaignConfig(policies=("nope",))
        with pytest.raises(EbdaError):
            CampaignConfig(workloads=("nope",))

    def test_dict_round_trip(self):
        assert CampaignConfig.from_dict(SMALL.to_dict()) == SMALL
        with pytest.raises(SimulationError):
            CampaignConfig.from_dict({"trials": 5, "surprise": 1})

    def test_token_is_content_addressed(self):
        assert SMALL.token() == CampaignConfig(**{
            f: getattr(SMALL, f) for f in ("trials", "seed", "mesh", "cycles")
        }).token()
        assert SMALL.token() != CampaignConfig(trials=8, seed=1, cycles=200).token()


class TestDeriveTrial:
    def test_deterministic_and_order_free(self):
        specs = [derive_trial(SMALL, i) for i in range(SMALL.trials)]
        again = [derive_trial(SMALL, i) for i in reversed(range(SMALL.trials))]
        assert specs == list(reversed(again))

    def test_draws_within_config(self):
        for i in range(SMALL.trials):
            spec = derive_trial(SMALL, i)
            assert spec.workload in SMALL.workloads
            assert spec.policy in SMALL.policies
            assert 0 <= spec.n_faults <= SMALL.max_faults

    def test_index_out_of_range(self):
        with pytest.raises(SimulationError):
            derive_trial(SMALL, SMALL.trials)
        with pytest.raises(SimulationError):
            derive_trial(SMALL, -1)


class TestRunTrial:
    def test_record_is_strict_json_without_timing(self):
        record = run_trial(SMALL, 0)
        data = trial_record_bytes(record)  # allow_nan=False: raises on NaN
        parsed = json.loads(data)
        assert parsed == record
        assert "wall_time" not in record
        assert record["outcome"] in (
            "delivered", "degraded", "deadlock", "unroutable", "error"
        )

    def test_trial_reruns_identically(self):
        assert trial_record_bytes(run_trial(SMALL, 3)) == trial_record_bytes(
            run_trial(SMALL, 3)
        )


class TestCheckpoint:
    def test_store_and_load(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path, "deadbeef")
        ckpt.store(0, b'{"a": 1}')
        ckpt.store(2, b'{"b": 2}')
        assert ckpt.completed() == {0: b'{"a": 1}', 2: b'{"b": 2}'}
        assert 0 in ckpt and 1 not in ckpt
        assert len(ckpt) == 2

    def test_idempotent_same_bytes(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path, "deadbeef")
        ckpt.store(0, b"x")
        ckpt.store(0, b"x")
        assert len(ckpt) == 1

    def test_conflicting_bytes_rejected(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path, "deadbeef")
        ckpt.store(0, b"x")
        with pytest.raises(ValueError):
            ckpt.store(0, b"y")

    def test_corrupt_record_dropped(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path, "deadbeef")
        path = ckpt.store(0, b'{"a": 1}')
        path.write_bytes(b'{"tampered": true}')
        assert ckpt.completed() == {}

    def test_campaigns_do_not_collide(self, tmp_path):
        a = CampaignCheckpoint(tmp_path, "aaaa")
        b = CampaignCheckpoint(tmp_path, "bbbb")
        a.store(0, b"x")
        assert b.completed() == {}

    def test_clear(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path, "deadbeef")
        ckpt.store(0, b"x")
        assert ckpt.clear() == 1
        assert len(ckpt) == 0


class TestChaosCampaign:
    def test_deterministic_across_runs(self):
        a = ChaosCampaign(SMALL).run()
        b = ChaosCampaign(SMALL).run()
        assert a.trial_bytes == b.trial_bytes
        assert not a.interrupted
        assert a.trials_completed == SMALL.trials

    @pytest.mark.parametrize(
        "config, jobs",
        [
            (SMALL, 2),
            # A jobs=4 batch holds 16 trials, so 24 trials span two batches.
            (CampaignConfig(trials=24, seed=0, mesh=(4, 4), cycles=300), 4),
        ],
        ids=["one-batch", "two-batches"],
    )
    def test_parallel_matches_serial(self, config, jobs):
        serial = ChaosCampaign(config).run()
        parallel = ChaosCampaign(config, engine=SweepEngine(jobs=jobs)).run()
        assert parallel.trials_completed == config.trials
        assert serial.trial_bytes == parallel.trial_bytes

    def test_budget_interrupts_then_resume_is_byte_identical(self, tmp_path):
        # Needs more trials than one batch (8 at jobs=1), else budget_s=0
        # never gets a chance to interrupt.
        from repro.chaos import load_survival

        config = CampaignConfig(trials=12, seed=0, mesh=(4, 4), cycles=200)
        full = ChaosCampaign(config).run()
        assert not full.interrupted
        assert full.trials_completed == config.trials
        partial = ChaosCampaign(config, checkpoint_dir=tmp_path / "ckpt").run(budget_s=0)
        assert partial.interrupted
        assert 0 < partial.trials_completed < config.trials
        resumed = ChaosCampaign(config, checkpoint_dir=tmp_path / "ckpt").run()
        assert not resumed.interrupted
        assert resumed.trial_bytes == full.trial_bytes
        # The reports agree byte for byte and carry one trial record per
        # trial and survival curves of probabilities.
        a, b = tmp_path / "full.jsonl", tmp_path / "resumed.jsonl"
        full.to_jsonl(a)
        resumed.to_jsonl(b)
        assert a.read_bytes() == b.read_bytes()
        records = load_survival(a)
        trials = [r for r in records if r["record"] == "trial"]
        assert [t["index"] for t in trials] == list(range(config.trials))
        survival = [r for r in records if r["record"] == "survival"]
        assert survival
        assert all(
            0.0 <= point["p_delivered"] <= 1.0 for s in survival for point in s["curve"]
        )

    def test_report_jsonl_round_trip(self, tmp_path):
        from repro.chaos import load_survival

        report = ChaosCampaign(SMALL).run()
        path = tmp_path / "campaign.jsonl"
        n = report.to_jsonl(path)
        records = load_survival(path)
        assert len(records) == n
        assert records[0]["record"] == "campaign-meta"
        assert records[0]["token"] == SMALL.token()
        trials = [r for r in records if r["record"] == "trial"]
        assert [t["index"] for t in trials] == list(range(SMALL.trials))
        assert any(r["record"] == "survival" for r in records)

    def test_report_jsonl_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ChaosCampaign(SMALL).run().to_jsonl(a)
        ChaosCampaign(SMALL).run().to_jsonl(b)
        assert a.read_bytes() == b.read_bytes()

    def test_progress_reports_batches(self):
        lines = []
        ChaosCampaign(SMALL).run(progress=lines.append)
        assert lines and f"{SMALL.trials}/{SMALL.trials}" in lines[-1]

    def test_summary_and_outcomes(self):
        report = ChaosCampaign(SMALL).run()
        assert SMALL.token() in report.summary()
        assert sum(report.outcome_counts().values()) == SMALL.trials


class TestPolicies:
    def test_named_policies_cover_cli_defaults(self):
        assert set(NAMED_RECOVERY_POLICIES) >= {"none", "retry-2", "retry-8"}
        assert NAMED_RECOVERY_POLICIES["none"] is None
        assert NAMED_RECOVERY_POLICIES["retry-2"].max_retries == 2
