"""Baseline files: suppress known findings, fail only on new ones.

A baseline is a small JSON document of diagnostic fingerprints (see
:meth:`~repro.analyze.diagnostics.Diagnostic.fingerprint` — rule + design +
location, independent of message wording).  ``repro lint --baseline FILE``
drops every diagnostic whose fingerprint appears in the file, which lets a
project adopt the linter incrementally: record today's findings, gate on
anything new.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.analyze.engine import AnalysisReport
from repro.errors import EbdaError
from repro.store import atomic_write, read_json

__all__ = ["apply_baseline", "load_baseline", "write_baseline"]

BASELINE_VERSION = 1


def write_baseline(reports: Sequence[AnalysisReport], path: str | Path) -> int:
    """Record every current finding's fingerprint; returns the count."""
    entries: dict[str, str] = {}
    for report in reports:
        for diag in report.diagnostics:
            entries[diag.fingerprint()] = f"{diag.rule} {diag.design or report.unit_name}"
    payload = {"version": BASELINE_VERSION, "fingerprints": entries}
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(entries)


def load_baseline(path: str | Path) -> frozenset[str]:
    """The fingerprint set of a baseline file (validating its shape)."""
    payload = read_json(path)
    if payload.get("version") != BASELINE_VERSION:
        raise EbdaError(
            f"baseline file {path} has unsupported shape (expected"
            f' {{"version": {BASELINE_VERSION}, "fingerprints": ...}})'
        )
    fingerprints = payload.get("fingerprints", {})
    if not isinstance(fingerprints, dict):
        raise EbdaError(f"baseline file {path}: 'fingerprints' must be an object")
    return frozenset(fingerprints)


def apply_baseline(
    reports: Iterable[AnalysisReport], fingerprints: frozenset[str]
) -> list[AnalysisReport]:
    """Reports with baselined diagnostics removed (rules_run preserved)."""
    out: list[AnalysisReport] = []
    for report in reports:
        kept = tuple(
            d for d in report.diagnostics if d.fingerprint() not in fingerprints
        )
        out.append(
            AnalysisReport(
                unit_name=report.unit_name,
                diagnostics=kept,
                rules_run=report.rules_run,
                elapsed_s=report.elapsed_s,
            )
        )
    return out
