"""Static design analysis: a simulation-free lint pass over EbDa designs.

The paper's central promise is that deadlock freedom is decidable from the
*structure* of a design — partitions, turns, channel classes — without
enumerating a concrete channel dependency graph or simulating traffic.
This package takes that promise literally: :class:`Analyzer` runs a
catalog of paper-grounded rules (``EBDA001``...) over a
:class:`DesignUnit` and emits structured :class:`Diagnostic` records with
design locations and fix hints, renderable as human text, strict JSON, or
SARIF 2.1.0 for code-scanning UIs.

Quick start::

    from repro.analyze import DesignUnit, lint_design

    unit = DesignUnit.from_sequence("X+ X- -> Y+ Y-", name="xy")
    report = lint_design(unit)
    assert report.ok

The theorem-mirror rules (EBDA001-005) consume the exact same structured
violation streams as the fuzzer's theorem oracle, which lets the
differential fuzzer run the analyzer as a fourth oracle and cross-check
the two verdicts on every trial (:func:`static_errors`).
"""

from repro.analyze.baseline import apply_baseline, load_baseline, write_baseline
from repro.analyze.certcheck import CheckResult, check_certificate, check_certificates
from repro.analyze.diagnostics import (
    RULES,
    Diagnostic,
    Location,
    RuleInfo,
    Severity,
    register_rule,
    rule_ids,
)
from repro.analyze.engine import AnalysisReport, Analyzer, lint_design, static_errors
from repro.analyze.reporters import render_json, render_sarif, render_text
from repro.analyze.rings import link_rings, unbroken_rings, unbroken_wrap_rings
from repro.analyze.rules import THEOREM_MIRROR_RULES
from repro.analyze.symbolic import (
    SYMBOLIC_FAMILIES,
    SYMBOLIC_RULES,
    Certificate,
    SymbolicDesign,
    SymbolicReport,
    certify,
    certify_all,
    differential_gate,
    symbolic_family,
)
from repro.analyze.unit import NATIVE_LINT, DesignUnit, TableProtocol, default_lint_unit

__all__ = [
    "NATIVE_LINT",
    "RULES",
    "SYMBOLIC_FAMILIES",
    "SYMBOLIC_RULES",
    "THEOREM_MIRROR_RULES",
    "AnalysisReport",
    "Analyzer",
    "Certificate",
    "CheckResult",
    "DesignUnit",
    "Diagnostic",
    "Location",
    "RuleInfo",
    "Severity",
    "SymbolicDesign",
    "SymbolicReport",
    "TableProtocol",
    "apply_baseline",
    "certify",
    "certify_all",
    "check_certificate",
    "check_certificates",
    "default_lint_unit",
    "differential_gate",
    "link_rings",
    "lint_design",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "static_errors",
    "symbolic_family",
    "unbroken_rings",
    "unbroken_wrap_rings",
    "write_baseline",
]
