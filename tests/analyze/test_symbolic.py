"""The symbolic prover: parametric families, closed forms, certificates."""

import pytest

from repro.analyze import Analyzer
from repro.analyze.symbolic import (
    CLAIMED_CATALOG,
    SYMBOLIC_FAMILIES,
    SYMBOLIC_RULES,
    certify,
    certify_all,
    differential_gate,
    symbolic_family,
)
from repro.analyze.symbolic.certificate import (
    Certificate,
    content_digest,
    region_holds,
    region_k_ge,
    region_n_ge,
)
from repro.analyze.symbolic.instantiate import concrete_errors, unit_at
from repro.core import catalog, partition_vc_budget
from repro.core.torus_designs import dateline_design
from repro.errors import EbdaError


class TestRegistry:
    def test_every_catalog_design_has_a_family(self):
        for name in catalog.NAMED_DESIGNS:
            assert f"catalog:{name}" in SYMBOLIC_FAMILIES

    def test_unknown_family_is_rejected_with_known_list(self):
        with pytest.raises(EbdaError, match="dim-order-mesh"):
            symbolic_family("nope")

    def test_domains_are_well_formed(self):
        for name in SYMBOLIC_FAMILIES:
            design = symbolic_family(name)
            assert design.k_min >= 2
            if design.n_fixed is not None:
                assert design.contains(design.n_fixed, design.k_min)
            else:
                assert design.contains(design.n_min, design.k_min)


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_alg1_mesh_matches_algorithm1(self, n):
        symbolic = symbolic_family("alg1-mesh").sequence_at(n)
        concrete = partition_vc_budget([1] * n)
        assert symbolic.arrow_notation() == concrete.arrow_notation()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dateline_torus_matches_dateline_design(self, n):
        symbolic = symbolic_family("dateline-torus").sequence_at(n)
        assert symbolic.arrow_notation() == dateline_design(n).arrow_notation()

    def test_catalog_families_instantiate_to_the_catalog_design(self):
        for name in ("xy", "odd-even", "dragonfly-minimal", "fattree-updown"):
            design = symbolic_family(f"catalog:{name}")
            n = design.n_fixed
            seq = design.sequence_at(n)
            assert seq.arrow_notation() == catalog.design(name).arrow_notation()


class TestProver:
    def test_certify_all_covers_the_registry(self):
        reports = certify_all()
        assert {r.family for r in reports} == set(SYMBOLIC_FAMILIES)
        for report in reports:
            assert len(report.certificates) == len(SYMBOLIC_RULES)

    def test_clean_parametric_families(self):
        for name in ("dim-order-mesh", "alg1-mesh", "dateline-torus"):
            report = certify(name)
            assert report.ok, (name, report.violation_rules)

    @pytest.mark.parametrize("family,rule", [
        ("mesh-missing-negative", "EBDA008"),
        ("mesh-descending-uturn", "EBDA002"),
        ("mesh-backward-turn", "EBDA003"),
        ("mesh-foreign-turn", "EBDA004"),
        ("torus-no-dateline", "EBDA005"),
        ("alg1-claimed", "EBDA009"),
    ])
    def test_broken_family_violates_exactly_its_rule(self, family, rule):
        report = certify(family)
        assert report.violation_rules == (rule,)

    @pytest.mark.parametrize(
        "name", ["xy", "dragonfly-minimal", "dragonfly-valiant", "fattree-updown"]
    )
    def test_catalog_family_proven_clean(self, name):
        # The claimed-minimal catalog designs are proven clean below.
        report = certify(f"catalog:{name}")
        assert report.ok, (name, report.violation_rules)

    def test_claimed_catalog_designs_clear_ebda009(self):
        for name in CLAIMED_CATALOG:
            report = certify(f"catalog:{name}")
            assert report.ok, (name, report.violation_rules)

    def test_dragonfly_marks_ebda005_inapplicable(self):
        report = certify("catalog:dragonfly-minimal")
        cert = next(c for c in report.certificates if c.rule == "EBDA005")
        assert cert.status == "inapplicable"
        assert "EBDA005" not in report.applicable_rules

    def test_unknown_rule_is_rejected(self):
        with pytest.raises(EbdaError, match="symbolic derivation"):
            certify("dim-order-mesh", rules=("EBDA999",))


class TestCertificates:
    def test_sealed_digest_matches_payload(self):
        report = certify("dim-order-mesh")
        for cert in report.certificates:
            assert cert.digest == content_digest(cert.payload())

    def test_round_trip_through_dict(self):
        report = certify("torus-no-dateline")
        for cert in report.certificates:
            clone = Certificate.from_dict(cert.to_dict())
            assert clone == cert

    def test_witnesses_embed_the_design(self):
        report = certify("alg1-mesh")
        for cert in report.certificates:
            assert cert.witnesses["design"]["name"] == "alg1-mesh"

    def test_region_holds(self):
        assert region_holds(region_n_ge(3), 3, 4)
        assert not region_holds(region_n_ge(3), 2, 9)
        assert region_holds(region_k_ge(5), 1, 5)
        assert not region_holds(region_k_ge(5), 9, 4)


class TestInstantiation:
    def test_unit_at_builds_a_lintable_unit(self):
        design = symbolic_family("dateline-torus")
        unit = unit_at(design, 2, 4)
        report = Analyzer().run(unit)
        assert report.ok

    def test_concrete_errors_match_symbolic_verdict_on_a_grid(self):
        for name in ("dim-order-mesh", "mesh-backward-turn"):
            design = symbolic_family(name)
            report = certify(name)
            for n in (1, 2, 3):
                for k in (2, 4):
                    assert (
                        concrete_errors(design, n, k, report.applicable_rules)
                        == report.errors_at(n, k)
                    ), (name, n, k)

    def test_differential_gate_small_run_is_clean(self):
        result = differential_gate(
            ("dim-order-mesh", "torus-no-dateline"), points=20, seed=7
        )
        assert result.ok
        assert len(result.checked) == 20

    def test_differential_gate_checks_only_the_named_families(self):
        subset = ("dim-order-mesh", "mesh-backward-turn")
        result = differential_gate(subset, points=10, seed=3)
        assert result.ok
        assert result.families == subset
        assert {name for name, _n, _k in result.checked} == set(subset)

    def test_differential_gate_is_deterministic_for_a_seed(self):
        a = differential_gate(points=30, seed=9)
        b = differential_gate(points=30, seed=9)
        assert a.ok
        assert len(a.families) >= 20
        assert a.checked == b.checked
        assert a.disagreements == b.disagreements

    def test_differential_gate_requires_one_point_per_family(self):
        with pytest.raises(EbdaError):
            differential_gate(points=3, seed=0)
