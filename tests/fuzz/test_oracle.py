"""The differential oracle: verdicts, classification, forensics wiring."""

import pytest

from repro.cdg.verify import cyclic_core
from repro.fuzz import (
    HARD_DISAGREEMENTS,
    DifferentialOracle,
    FuzzDesign,
    Mutation,
    fast_profile,
)


@pytest.fixture(scope="module")
def oracle():
    return DifferentialOracle(fast_profile())


VALID_MESH = FuzzDesign("mesh", (3, 3), "X+ X- Y+ -> Y-", label="valid:mesh-alg1")
VALID_TORUS = FuzzDesign(
    "torus",
    (3,),
    "X+@r X-@r -> X2+@w X2-@w -> X2+@r X2-@r",
    rule="dateline",
    label="valid:torus-dateline",
)
DUP_PAIR_2X2 = FuzzDesign(
    "mesh",
    (2, 2),
    "X+ X- Y+ -> Y-",
    mutations=(Mutation("duplicate-pair", partition=0, channels="Y2+ Y2-"),),
    label="mutant:duplicate-pair",
)


def test_valid_mesh_is_safe_confirmed(oracle):
    result = oracle.run(VALID_MESH)
    assert result.classification == "safe-confirmed"
    assert result.disagreement is None
    assert result.theorem_safe and result.cdg_acyclic
    assert not result.sim_deadlock
    assert result.error is None


def test_valid_dateline_torus_is_safe_confirmed(oracle):
    result = oracle.run(VALID_TORUS)
    assert result.classification == "safe-confirmed"
    assert result.theorem_safe and result.cdg_acyclic
    assert not result.sim_deadlock


def test_duplicate_pair_mutant_flagged_by_all_three(oracle):
    result = oracle.run(DUP_PAIR_2X2)
    assert result.classification == "unsafe-flagged"
    assert result.all_flagged
    assert result.disagreement is None
    assert any("complete pairs" in v for v in result.theorem_violations)
    assert result.cdg_cycle  # concrete wire cycle reported


def test_mesh_design_on_torus_caught_by_wrap_ring_check(oracle):
    design = FuzzDesign(
        "torus", (3, 3), "X+ X- Y+ -> Y-", rule="none", label="mutant:drop-channel"
    )
    result = oracle.run(design)
    assert result.classification == "unsafe-flagged"
    assert result.all_flagged
    assert any("unbroken" in v for v in result.theorem_violations)


def test_deadlock_report_embeds_forensics_witness(oracle):
    result = oracle.run(DUP_PAIR_2X2)
    assert result.sim_deadlock
    assert result.forensics is not None
    assert result.forensics["wait_cycle"]
    assert result.forensics["witness_channels"]


def test_witness_channels_lie_in_cdg_cyclic_core(oracle):
    """When sim and CDG both fire, the held wires sit in the cyclic core."""
    result = oracle.run(DUP_PAIR_2X2)
    assert result.witness_in_core is True
    graph = oracle.cdg_graph(DUP_PAIR_2X2)
    core = {str(w) for w in cyclic_core(graph)}
    held = {w for wires in result.forensics["witness_channels"] for w in wires}
    assert held and held <= core


def test_descending_uturn_is_cyclic_not_triggered(oracle):
    design = FuzzDesign(
        "mesh",
        (3, 3),
        "X+ X- Y+ -> Y-",
        mutations=(Mutation("add-turn", turn="X-->X+"),),
        label="mutant:add-turn",
    )
    result = oracle.run(design)
    # Minimal routing never offers the non-productive reversal, so the
    # 2-wire CDG cycle cannot be expressed dynamically: agreement, not a
    # disagreement (the CDG is conservative by construction).
    assert result.classification == "cyclic-not-triggered"
    assert result.disagreement is None


def test_mutant_falsely_labeled_valid_is_hard_disagreement(oracle):
    forged = FuzzDesign(
        "mesh",
        (2, 2),
        "X+ X- Y+ -> Y-",
        mutations=DUP_PAIR_2X2.mutations,
        label="valid:forged",
    )
    result = oracle.run(forged)
    assert result.classification == "valid-design-rejected"
    assert result.disagreement in HARD_DISAGREEMENTS


def test_oracle_errors_are_captured_not_raised(oracle):
    broken = FuzzDesign("mesh", (2, 2), "not a sequence", label="valid:broken")
    result = oracle.run(broken)
    assert result.classification == "oracle-error"
    assert result.disagreement == "oracle-error"
    assert result.error


def test_trial_result_is_json_safe(oracle):
    import json

    result = oracle.run(DUP_PAIR_2X2)
    payload = json.dumps(result.to_dict())
    assert "unsafe-flagged" in payload


class TestStaticOracle:
    """The fourth oracle: `repro.analyze` static verdicts on every trial."""

    def test_valid_design_static_clean(self, oracle):
        result = oracle.run(VALID_MESH)
        assert result.static_safe
        assert result.static_errors == ()

    def test_mutant_static_errors_carry_rule_ids(self, oracle):
        result = oracle.run(DUP_PAIR_2X2)
        assert not result.static_safe
        assert result.static_errors
        assert all(e.startswith("EBDA") for e in result.static_errors)

    def test_static_and_theorem_verdicts_agree(self, oracle):
        for design in (VALID_MESH, VALID_TORUS, DUP_PAIR_2X2):
            result = oracle.run(design)
            assert result.static_safe == result.theorem_safe, design.describe()
            assert result.disagreement is None

    def test_all_flagged_requires_static_error(self, oracle):
        result = oracle.run(DUP_PAIR_2X2)
        assert result.all_flagged  # four-way: theorems+static+CDG+sim

    def test_static_verdict_method(self, oracle):
        safe, errors = oracle.static_verdict(VALID_MESH)
        assert safe and errors == ()
        safe, errors = oracle.static_verdict(DUP_PAIR_2X2)
        assert not safe and errors

    def test_static_mismatch_is_hard_disagreement(self, oracle):
        clean, kind = oracle._classify(
            labeled_valid=True,
            theorem_safe=False,
            cdg_acyclic=True,
            deadlock=False,
            unroutable=False,
            static_safe=True,
        )
        assert clean == kind == "static-clean-theorem-unsafe"
        noisy, kind = oracle._classify(
            labeled_valid=True,
            theorem_safe=True,
            cdg_acyclic=True,
            deadlock=False,
            unroutable=False,
            static_safe=False,
        )
        assert noisy == kind == "static-error-theorem-safe"
        assert "static-clean-theorem-unsafe" in HARD_DISAGREEMENTS
        assert "static-error-theorem-safe" in HARD_DISAGREEMENTS

    def test_trial_json_carries_static_fields(self, oracle):
        import json

        result = oracle.run(DUP_PAIR_2X2)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["static_safe"] is False
        assert payload["static_errors"]


class TestBackendDivergenceOracle:
    """The vector replay of a trial's runs, and the divergences it reports."""

    @staticmethod
    def _perturb_second(monkeypatch, change):
        """Route the oracle's batch replays through ``change(outcomes)``."""
        import repro.fuzz.oracle as oracle_module

        real = oracle_module.run_batch
        seen = []

        def patched(*args, **kwargs):
            outcomes = real(*args, **kwargs)
            seen.append(len(outcomes))
            if len(outcomes) > 1:
                outcomes[1] = change(outcomes[1])
            return outcomes

        monkeypatch.setattr(oracle_module, "run_batch", patched)
        return seen

    def test_valid_mesh_runs_all_agree(self, oracle):
        result = oracle.run(VALID_MESH)
        adversarial = [r for r in result.sim_runs if r["kind"] == "adversarial"]
        assert [r["pattern"] for r in adversarial] == ["rotate90", "hotspot"]
        assert all(r["backend_agree"] is True for r in adversarial)
        assert result.backend_agree is True
        assert result.backend_divergences == ()

    def test_adversarial_runs_replay_in_one_batch(self, oracle, monkeypatch):
        seen = self._perturb_second(monkeypatch, lambda stats: stats)
        result = oracle.run(VALID_MESH)
        assert seen == [2]
        assert result.classification == "safe-confirmed"

    def test_perturbed_second_replica_is_a_divergence(self, oracle, monkeypatch):
        def bump(stats):
            stats.flit_moves += 1
            return stats

        self._perturb_second(monkeypatch, bump)
        result = oracle.run(VALID_MESH)
        assert result.classification == result.disagreement == "backend-divergence"
        assert result.backend_agree is False
        first, second = result.sim_runs
        assert first["backend_agree"] is True
        assert "backend_divergences" not in first
        assert second["backend_agree"] is False
        (message,) = result.backend_divergences
        assert "flit_moves" in message and "pattern=hotspot" in message

    def test_replica_raising_where_reference_completed(self, oracle, monkeypatch):
        from repro.errors import RoutingError

        self._perturb_second(
            monkeypatch, lambda stats: RoutingError("synthetic dead-end")
        )
        result = oracle.run(VALID_MESH)
        assert result.classification == "backend-divergence"
        assert result.sim_runs[0]["backend_agree"] is True
        (message,) = result.backend_divergences
        assert message.startswith("vector raised RoutingError (synthetic dead-end)")
        assert "where the reference completed" in message

    def test_no_replay_without_compare_backends(self, monkeypatch):
        from dataclasses import replace

        seen = self._perturb_second(monkeypatch, lambda stats: stats)
        quiet = DifferentialOracle(replace(fast_profile(), compare_backends=False))
        result = quiet.run(VALID_MESH)
        assert seen == []
        assert result.backend_agree is None
        assert all("backend_agree" not in r for r in result.sim_runs)


class TestForensicsAfterTheRun:
    """The oracle builds forensics from the stopped simulator; a collector
    on the same run freezes the same snapshot when the watchdog fires."""

    def test_corpus_witness_matches_the_collector(self, monkeypatch):
        from pathlib import Path

        from repro.fuzz import oracle as oracle_module
        from repro.fuzz.corpus import load_entry
        from repro.sim.metrics import DeadlockForensics, MetricsCollector
        from repro.sim.network import NetworkSimulator

        metered = []

        class Metered(NetworkSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, metrics=MetricsCollector(), **kwargs)
                metered.append(self)

        monkeypatch.setattr(oracle_module, "NetworkSimulator", Metered)
        corpus = Path(__file__).parent / "corpus"
        design = load_entry(corpus / "fuzz-250e080f2156.json").design
        result = DifferentialOracle(fast_profile()).run(design)
        deadlocked = [sim for sim in metered if sim.stats.deadlocked]
        assert result.sim_deadlock and deadlocked
        assert result.forensics == deadlocked[0].metrics.forensics.to_dict()
        for sim in deadlocked:
            assert (
                DeadlockForensics.capture(sim).to_dict()
                == sim.metrics.forensics.to_dict()
            )

    def test_unrestricted_mesh_deadlock_matches_the_collector(self):
        from repro.sim.metrics import DeadlockForensics, MetricsCollector
        from repro.sim.network import NetworkSimulator
        from repro.sim.patterns import uniform
        from repro.sim.specs import resolve_routing_factory
        from repro.sim.trace import Trace
        from repro.sim.traffic import TrafficConfig, TrafficGenerator
        from repro.topology import Mesh

        mesh = Mesh(4, 4)
        collector = MetricsCollector()
        sim = NetworkSimulator(
            mesh, resolve_routing_factory("unrestricted-adaptive")(mesh),
            buffer_depth=2, tracer=Trace(), metrics=collector,
        )
        config = TrafficConfig(injection_rate=0.3, packet_length=8, pattern=uniform)
        assert sim.run(3000, TrafficGenerator(mesh, config)).deadlocked
        captured = DeadlockForensics.capture(sim, collector.trace_tail).to_dict()
        assert captured == collector.forensics.to_dict()
        assert any(b["trace_tail"] for b in captured["blocked"])
