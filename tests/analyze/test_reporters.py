"""The three renderers: human text, strict JSON, SARIF 2.1.0."""

import json

import pytest

from repro.analyze import Analyzer, DesignUnit, render_json, render_sarif, render_text
from repro.analyze.diagnostics import RULES
from repro.analyze.reporters import (
    FINGERPRINT_KEY,
    RENDERERS,
    SARIF_SCHEMA,
    SARIF_VERSION,
    TOOL_NAME,
)


@pytest.fixture(scope="module")
def reports():
    analyzer = Analyzer()
    return [
        analyzer.run(DesignUnit.from_sequence("X- -> X+ Y+ Y-", name="west-first")),
        analyzer.run(DesignUnit.from_sequence("X+ X- Y+ Y- -> X2+", name="broken")),
    ]


class TestText:
    def test_blocks_and_totals(self, reports):
        text = render_text(reports)
        assert "west-first:" in text
        assert "broken: 1 error(s)" in text
        assert text.splitlines()[-1].startswith("checked 2 design(s):")

    def test_verbose_appends_rules_run(self, reports):
        assert "[rules run:" in render_text(reports, verbose=True)


class TestJson:
    def test_schema_and_totals(self, reports):
        payload = json.loads(render_json(reports))
        assert payload["tool"] == TOOL_NAME
        assert payload["schema"] == 1
        assert [d["design"] for d in payload["designs"]] == ["west-first", "broken"]
        assert payload["totals"]["error"] == 1

    def test_output_is_deterministic(self, reports):
        assert render_json(reports) == render_json(reports)


class TestSarif:
    def test_log_skeleton(self, reports):
        log = json.loads(render_sarif(reports))
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == TOOL_NAME
        assert run["properties"]["designs"] == ["west-first", "broken"]

    def test_one_descriptor_per_registered_rule(self, reports):
        log = json.loads(render_sarif(reports))
        descriptors = log["runs"][0]["tool"]["driver"]["rules"]
        assert [d["id"] for d in descriptors] == sorted(RULES)
        for d in descriptors:
            assert d["shortDescription"]["text"]
            assert "EbDa paper" in d["help"]["text"]
            assert d["defaultConfiguration"]["level"] in ("error", "warning", "note")
            assert "citation" in d["properties"]

    def test_results_reference_descriptors(self, reports):
        log = json.loads(render_sarif(reports))
        run = log["runs"][0]
        ids = [d["id"] for d in run["tool"]["driver"]["rules"]]
        assert run["results"]
        for result in run["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]
            assert result["level"] in ("error", "warning", "note")
            (loc,) = result["locations"]
            (logical,) = loc["logicalLocations"]
            assert "::" in logical["fullyQualifiedName"]
            assert logical["kind"] == "member"
            assert result["partialFingerprints"][FINGERPRINT_KEY]

    def test_hint_folded_into_message(self, reports):
        log = json.loads(render_sarif(reports))
        error = next(
            r for r in log["runs"][0]["results"] if r["ruleId"] == "EBDA001"
        )
        assert "(hint:" in error["message"]["text"]

    def test_validates_against_vendored_subset_schema(self, reports):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        from repro.analyze import default_lint_unit
        from repro.core import catalog
        from tests.analyze.test_rules import corpus_mutant_units

        schema_path = (
            Path(__file__).parents[2] / "tools" / "sarif-2.1.0-subset.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        jsonschema.validate(json.loads(render_sarif(reports)), schema)
        # The whole catalog as it lints by default, and the corpus
        # mutants, in one log.
        combined = []
        for name in sorted(catalog.NAMED_DESIGNS):
            unit, ignore = default_lint_unit(name)
            combined.append(Analyzer(ignore=ignore).run(unit))
        combined += [Analyzer().run(unit) for unit in corpus_mutant_units()]
        jsonschema.validate(json.loads(render_sarif(combined)), schema)


class TestRegistry:
    def test_renderers_mapping(self):
        assert set(RENDERERS) == {"text", "json", "sarif"}
        assert RENDERERS["sarif"] is render_sarif
