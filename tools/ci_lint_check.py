"""CI guard for the static design analyzer (``repro.analyze``).

Five gates, any failure exits non-zero:

* **catalog gate** — eight known-good designs (XY, west-first,
  north-last, negative-first, DyXY, Odd-Even, Hamiltonian, the improved
  Elevator-First a.k.a. ``partial3d``) must lint with ZERO error-severity
  diagnostics: the linter has no false positives on the paper's designs;
* **new-engines gate** — the beyond-mesh catalog designs (dragonfly
  minimal/Valiant, fat-tree up*/down*) must lint clean when bound to
  their native topologies (the dragonfly pair ignores EBDA005, whose
  torus wrap-ring premise does not transfer to dragonfly 2-rings);
* **dragonfly-loop gate** — a theorem-clean but single-phase dragonfly
  design (local and global channels waiting on each other) must be
  flagged by EBDA012, the global-loop analogue of the wrap-ring rule;
* **mutant gate** — every committed fuzz-corpus witness under
  ``tests/fuzz/corpus`` must raise at least one error diagnostic carrying
  a stable rule ID and a design location: the linter has no false
  negatives on known-broken designs;
* **SARIF gate** — the combined SARIF 2.1.0 log must validate against the
  vendored subset schema (``tools/sarif-2.1.0-subset.schema.json``) and
  is written to the path given on the command line for artifact upload.

Run from the repository root:
    PYTHONPATH=src python tools/ci_lint_check.py [lint.sarif]
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.analyze import NATIVE_LINT, Analyzer, DesignUnit, default_lint_unit
from repro.analyze.engine import AnalysisReport
from repro.analyze.reporters import render_sarif
from repro.fuzz.corpus import load_corpus
from repro.topology import Dragonfly
from repro.topology.classes import rule_for_design

COMMITTED_CORPUS = Path("tests/fuzz/corpus")
SCHEMA_PATH = Path(__file__).with_name("sarif-2.1.0-subset.schema.json")
RULE_ID = re.compile(r"^EBDA\d{3}$")

#: The known-good designs the linter must pass without error diagnostics.
GATE_DESIGNS = (
    "xy",
    "west-first",
    "north-last",
    "negative-first",
    "dyxy",
    "odd-even",
    "hamiltonian",
    "partial3d",
)


def check_default_units() -> tuple[int, list[AnalysisReport]]:
    """Catalog and new-engines gates: each design lints clean as its
    default unit (the NATIVE_LINT designs on their native topologies)."""
    failures = 0
    reports: list[AnalysisReport] = []
    for name in GATE_DESIGNS + tuple(NATIVE_LINT):
        unit, ignore = default_lint_unit(name)
        report = Analyzer(ignore=ignore).run(unit)
        reports.append(report)
        if report.errors:
            failures += 1
            print(f"FAIL: {name} should lint clean on {unit.topology!r} but raised:")
            for diag in report.errors:
                print(f"  {diag.render()}")
        else:
            ignored = f" (ignoring {', '.join(ignore)})" if ignore else ""
            print(f"lint {name} [ok] {len(report.rules_run)} rules on {unit.topology!r}"
                  f"{ignored}, {report.counts['warning']} warning(s),"
                  f" {report.counts['note']} note(s)")
    return failures, reports


def check_dragonfly_loop() -> int:
    """Negative gate for EBDA012: a dragonfly design whose local and
    global phases wait on each other must be flagged, even though it is
    clean under every theorem-mirror rule."""
    unit = DesignUnit.from_sequence(
        "X+@l Y+@g",
        name="dragonfly-single-phase",
        topology=Dragonfly(4),
        rule=rule_for_design("dragonfly-minimal"),
    )
    report = Analyzer(ignore=("EBDA005",)).run(unit)
    fired = sorted({d.rule for d in report.errors})
    if "EBDA012" not in fired:
        print("FAIL: single-phase dragonfly design should raise EBDA012,"
              f" got {fired or 'no errors'}")
        return 1
    print(f"lint dragonfly-single-phase [ok] flagged via {', '.join(fired)}")
    return 0


def check_mutants(analyzer: Analyzer) -> tuple[int, list[AnalysisReport]]:
    failures = 0
    reports: list[AnalysisReport] = []
    entries = load_corpus(COMMITTED_CORPUS)
    if len(entries) < 5:
        print(f"FAIL: expected >= 5 committed corpus entries, found {len(entries)}")
        failures += 1
    for entry in entries:
        seq, turnset = entry.design.compile()
        # Native-engine designs (dragonfly, up-down) are judged on the
        # sequence alone, mirroring the oracle's static verdict: the
        # mesh/torus topology-aware rules do not transfer to them.
        native = entry.design.engine != "table"
        unit = DesignUnit(
            sequence=seq,
            turnset=turnset,
            name=entry.design.label or entry.id,
            topology=None if native else entry.design.topology(),
            rule=entry.design.class_rule(),
        )
        report = analyzer.run(unit)
        reports.append(report)
        bad = [
            d
            for d in report.errors
            if not RULE_ID.match(d.rule) or not d.location.describe()
        ]
        if not report.errors:
            failures += 1
            print(f"FAIL: mutant {entry.id} raised no error diagnostic"
                  f" ({entry.design.describe()})")
        elif bad:
            failures += 1
            print(f"FAIL: mutant {entry.id} has malformed diagnostics: {bad}")
        else:
            ids = sorted({d.rule for d in report.errors})
            loc = report.errors[0].location.describe()
            print(f"lint mutant {entry.id} [ok] {len(report.errors)} error(s)"
                  f" via {', '.join(ids)} at e.g. {loc}")
    return failures, reports


def check_sarif(reports: list[AnalysisReport], out_path: Path) -> int:
    rendered = render_sarif(reports)
    out_path.write_text(rendered + "\n")
    log = json.loads(rendered)
    n_results = len(log["runs"][0]["results"])
    print(f"SARIF log: {n_results} result(s) -> {out_path}")
    try:
        import jsonschema
    except ImportError:
        print("WARN: jsonschema unavailable; structural schema check skipped")
        return 0
    schema = json.loads(SCHEMA_PATH.read_text())
    try:
        jsonschema.validate(log, schema)
    except jsonschema.ValidationError as exc:
        print(f"FAIL: SARIF output violates the 2.1.0 subset schema: {exc.message}")
        return 1
    print("SARIF log validates against the vendored 2.1.0 subset schema")
    return 0


def main() -> int:
    sarif_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("lint.sarif")
    analyzer = Analyzer()
    failures = 0

    default_failures, default_reports = check_default_units()
    failures += default_failures

    failures += check_dragonfly_loop()

    mutant_failures, mutant_reports = check_mutants(analyzer)
    failures += mutant_failures

    failures += check_sarif(default_reports + mutant_reports, sarif_path)

    if failures:
        print(f"{failures} lint gate failure(s)")
        return 1
    print("lint gates passed: catalog clean, new engines clean,"
          " dragonfly loop flagged, mutants flagged, SARIF valid")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
