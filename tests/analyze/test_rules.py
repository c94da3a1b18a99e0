"""Each lint rule: fires on a crafted trigger, stays quiet on clean designs."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analyze import DesignUnit, lint_design
from repro.analyze.rules import THEOREM_MIRROR_RULES
from repro.core import catalog
from repro.core.torus_designs import dateline_design
from repro.core.turns import Turn, TurnSet
from repro.fuzz.corpus import load_corpus
from repro.topology import Dragonfly, FatTree, Mesh, Torus
from repro.topology.classes import dateline, rule_for_design

COMMITTED_CORPUS = Path(__file__).parents[1] / "fuzz" / "corpus"


def rules_fired(unit, *, select=None):
    report = lint_design(unit, select=select)
    return {d.rule for d in report.diagnostics}


def unit_for(text, **kw):
    return DesignUnit.from_sequence(text, **kw)


def corpus_mutant_units():
    """Every committed fuzz witness as a lint unit on its own topology.

    A native-engine witness (dragonfly, up*/down*) is also linted on its
    sequence alone, as the fuzz oracle's static verdict judges it.
    """
    units = []
    for entry in load_corpus(COMMITTED_CORPUS):
        seq, turnset = entry.design.compile()
        unit = DesignUnit(
            sequence=seq,
            turnset=turnset,
            name=entry.id,
            topology=entry.design.topology(),
            rule=entry.design.class_rule(),
        )
        units.append(unit)
        if entry.design.engine != "table":
            units.append(replace(unit, topology=None))
    return units


class TestTheoremMirrors:
    def test_ebda001_duplicate_pair(self):
        fired = rules_fired(unit_for("X+ X- Y+ Y- -> X2+"))
        assert "EBDA001" in fired

    def test_ebda002_descending_uturn(self):
        # P0 covers the complete X pair with numbering X+ < X-, so the
        # U-turn X- -> X+ descends it (extraction grants only X+ -> X-).
        seq_unit = unit_for("X+ X- -> Y+")
        bad = seq_unit.turnset.merged_with(
            TurnSet({"bad": (Turn.parse("X-->X+"),)})
        )
        unit = DesignUnit(sequence=seq_unit.sequence, turnset=bad)
        assert "EBDA002" in rules_fired(unit)

    def test_ebda003_backward_transition(self):
        seq_unit = unit_for("X+ -> Y+")
        bad = seq_unit.turnset.merged_with(
            TurnSet({"bad": (Turn.parse("Y+->X+"),)})
        )
        unit = DesignUnit(sequence=seq_unit.sequence, turnset=bad)
        assert "EBDA003" in rules_fired(unit)

    def test_ebda004_foreign_channel(self):
        seq_unit = unit_for("X+ -> Y+")
        bad = seq_unit.turnset.merged_with(
            TurnSet({"bad": (Turn.parse("X+->Z+"),)})
        )
        unit = DesignUnit(sequence=seq_unit.sequence, turnset=bad)
        assert "EBDA004" in rules_fired(unit)

    def test_ebda005_unbroken_wrap_ring_aggregated(self):
        unit = unit_for("X+ X- -> Y+ Y-", topology=Torus(4, 4))
        report = lint_design(unit)
        hits = [d for d in report.errors if d.rule == "EBDA005"]
        # one aggregated diagnostic per broken direction, not per ring
        assert len(hits) == 4
        assert all("unbroken" in d.message for d in hits)

    def test_ebda005_silent_with_dateline(self):
        unit = DesignUnit.from_sequence(
            dateline_design(2), topology=Torus(4, 4), rule=dateline
        )
        assert "EBDA005" not in rules_fired(unit)

    def test_ebda005_skipped_without_topology(self):
        unit = unit_for("X+ X- -> Y+ Y-")  # would break every torus ring
        report = lint_design(unit)
        assert "EBDA005" not in report.rules_run
        assert report.ok

    def test_mirror_rules_constant(self):
        assert THEOREM_MIRROR_RULES == (
            "EBDA001",
            "EBDA002",
            "EBDA003",
            "EBDA004",
            "EBDA005",
        )


class TestStructuralSmells:
    def test_ebda006_dead_channel(self):
        # Z+ sits alone in the last partition; extraction grants turns
        # into it, so drop them to isolate the channel.
        seq_unit = unit_for("X+ X- Y- -> Y+")
        pruned = TurnSet(
            {
                "kept": tuple(
                    t
                    for t in seq_unit.turnset.turns
                    if "Y+" not in (str(t.src), str(t.dst))
                )
            }
        )
        unit = DesignUnit(sequence=seq_unit.sequence, turnset=pruned)
        assert "EBDA006" in rules_fired(unit)

    def test_ebda006_quiet_on_single_channel_design(self):
        assert "EBDA006" not in rules_fired(unit_for("X+"))

    def test_ebda007_phantom_class(self):
        # The odd-even design needs the column-parity rule; under the
        # default no-classes rule its @o/@e channels are never produced.
        unit = DesignUnit.from_sequence(
            catalog.design("odd-even"), topology=Mesh(4, 4)
        )
        assert "EBDA007" in rules_fired(unit)

    def test_ebda007_quiet_with_right_rule(self):
        unit = DesignUnit.from_sequence(
            catalog.design("odd-even"),
            topology=Mesh(4, 4),
            rule=rule_for_design("odd-even"),
        )
        assert "EBDA007" not in rules_fired(unit)


class TestRoutability:
    def test_ebda008_missing_direction(self):
        report = lint_design(unit_for("X+ -> Y+ Y-"))
        hits = [d for d in report.errors if d.rule == "EBDA008"]
        assert hits
        assert any("X-" in d.message for d in hits)

    def test_ebda008_reports_minimal_failing_sets_only(self):
        # Keep all four directions but drop every turn: each single-dim
        # requirement is servable (injection is free), every {X,Y} mix
        # fails; supersets of failing sets must not be re-reported.
        seq_unit = unit_for("X+ X- Y- -> Y+")
        unit = DesignUnit(sequence=seq_unit.sequence, turnset=TurnSet({}))
        hits = [
            d for d in lint_design(unit).errors if d.rule == "EBDA008"
        ]
        assert hits
        for d in hits:
            assert d.message.count("+") + d.message.count("-") <= 3

    def test_ebda008_quiet_on_catalog(self):
        for name in ("xy", "west-first", "north-last", "odd-even"):
            unit = DesignUnit.from_sequence(catalog.design(name), name=name)
            assert "EBDA008" not in rules_fired(unit), name

    def test_ebda009_needs_explicit_claim(self):
        text = "X+ X- Y- -> Y+"
        assert "EBDA009" not in rules_fired(unit_for(text))
        claimed = unit_for(text, claims_fully_adaptive=True)
        hits = [d for d in lint_design(claimed).errors if d.rule == "EBDA009"]
        assert hits
        assert "(n+1)*2^(n-1) = 6" in hits[0].message

    def test_ebda009_quiet_on_true_minimal_design(self):
        from repro.core import minimal_fully_adaptive

        unit = DesignUnit.from_sequence(
            minimal_fully_adaptive(2), claims_fully_adaptive=True
        )
        assert "EBDA009" not in rules_fired(unit)

    def test_ebda010_notes_escape_gap(self):
        unit = DesignUnit.from_sequence(catalog.design("west-first"))
        report = lint_design(unit)
        notes = [d for d in report.notes if d.rule == "EBDA010"]
        assert notes  # Y+/Y- while still needing X-
        assert report.ok  # notes never fail a lint

    def test_ebda010_quiet_on_deterministic_xy(self):
        unit = DesignUnit.from_sequence(catalog.design("xy"))
        assert "EBDA010" not in rules_fired(unit)


class TestOptInRules:
    def test_ebda011_off_by_default(self):
        unit = unit_for("X+ -> Y+ -> X- -> Y-")
        report = lint_design(unit)
        assert "EBDA011" not in report.rules_run

    def test_ebda011_flags_skipping_transitions(self):
        unit = unit_for("X+ -> Y+ -> X- -> Y-")
        fired = rules_fired(unit, select=("EBDA011",))
        assert fired == {"EBDA011"}


class TestDragonflyGlobalLoop:
    def dragonfly_unit(self, text):
        return unit_for(
            text,
            topology=Dragonfly(4),
            rule=rule_for_design("dragonfly-minimal"),
        )

    def test_ebda012_flags_single_phase_design(self):
        # Local and global channels in one partition wait on each other:
        # clean under every theorem mirror, yet the l->g->l loop through
        # the global channel can deadlock across groups.
        unit = self.dragonfly_unit("X+@l Y+@g")
        fired = rules_fired(unit)
        assert "EBDA012" in fired
        # Still an error with EBDA005 off, as the dragonfly designs lint.
        report = lint_design(unit, ignore=("EBDA005",))
        assert "EBDA012" in {d.rule for d in report.errors}

    def test_ebda012_quiet_on_phased_catalog_designs(self):
        for name in ("dragonfly-minimal", "dragonfly-valiant"):
            unit = DesignUnit.from_sequence(
                catalog.design(name),
                name=name,
                topology=Dragonfly(4),
                rule=rule_for_design(name),
            )
            assert "EBDA012" not in rules_fired(unit)

    def test_ebda012_quiet_off_dragonfly(self):
        unit = unit_for("X+ X- -> Y+ Y-", topology=Mesh(4, 4))
        assert "EBDA012" not in rules_fired(unit)

    def test_ebda012_skipped_without_topology(self):
        unit = unit_for("X+ X- -> Y+ Y-")
        report = lint_design(unit)
        assert "EBDA012" not in report.rules_run

    def test_ebda012_diagnostic_names_a_global_channel(self):
        unit = self.dragonfly_unit("X+@l Y+@g")
        report = lint_design(unit)
        diags = [d for d in report.errors if d.rule == "EBDA012"]
        assert diags
        assert "@g" in (diags[0].location.channel or "")


class TestCatalogIsClean:
    #: Beyond-mesh catalog designs lint on their native topologies; the
    #: dragonfly pair ignores EBDA005, whose torus wrap-ring premise
    #: misreads dragonfly global 2-rings.
    NATIVE = {
        "dragonfly-minimal": (lambda: Dragonfly(4), ("EBDA005",)),
        "dragonfly-valiant": (lambda: Dragonfly(4), ("EBDA005",)),
        "fattree-updown": (lambda: FatTree(4, 2, 2), ()),
    }

    @pytest.mark.parametrize("name", sorted(catalog.NAMED_DESIGNS))
    def test_catalog_design_has_no_errors(self, name):
        design = catalog.design(name)
        make_topology, ignore = self.NATIVE.get(name, (None, ()))
        if make_topology is None:
            n_dims = len({ch.dim for ch in design.all_channels})
            topology = Mesh(*((4,) * n_dims))
        else:
            topology = make_topology()
        unit = DesignUnit.from_sequence(
            design,
            name=name,
            topology=topology,
            rule=rule_for_design(name),
        )
        report = lint_design(unit, ignore=ignore)
        assert report.ok, [d.render() for d in report.errors]
        assert not report.warnings, [d.render() for d in report.warnings]


class TestCorpusMutantsAreFlagged:
    def test_every_committed_mutant_raises_an_error(self):
        assert len(load_corpus(COMMITTED_CORPUS)) >= 5
        for unit in corpus_mutant_units():
            report = lint_design(unit)
            assert report.errors, (unit.name, unit.topology)
            for d in report.errors:
                assert re.fullmatch(r"EBDA\d{3}", d.rule)
                assert d.location.describe()
