"""The analysis engine: rule selection, execution, reports.

An :class:`Analyzer` holds a resolved rule selection and runs the catalog
over :class:`~repro.analyze.unit.DesignUnit` instances, producing an
:class:`AnalysisReport` per unit.  Selection semantics follow familiar
linter conventions:

* no ``select`` — every default-enabled rule runs (opt-in rules such as
  EBDA011 stay off);
* explicit ``select`` — exactly those rules run, opt-in or not;
* ``ignore`` always subtracts, after selection.

Topology-dependent rules are silently skipped (and recorded as not run)
when the unit carries no topology.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

# Importing the rules module populates the RULES registry as a side effect.
import repro.analyze.rules as _rules
from repro.analyze.diagnostics import RULES, Diagnostic, Severity
from repro.analyze.rules import THEOREM_MIRROR_RULES
from repro.analyze.unit import DesignUnit
from repro.errors import EbdaError
from repro.obs.trace import current_tracer

__all__ = ["AnalysisReport", "Analyzer", "lint_design", "static_errors"]

assert _rules  # imported for its registration side effect


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one lint run found for one design unit."""

    unit_name: str
    diagnostics: tuple[Diagnostic, ...]
    #: Rule IDs that actually executed (topology-gated rules may be absent).
    rules_run: tuple[str, ...]
    elapsed_s: float = 0.0

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def notes(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.NOTE)

    @property
    def counts(self) -> dict[str, int]:
        """Diagnostic count per severity value (always all three keys)."""
        c = Counter(d.severity.value for d in self.diagnostics)
        return {s.value: c.get(s.value, 0) for s in Severity}

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was produced."""
        return not self.errors

    def worst(self) -> Severity | None:
        """The most severe diagnostic level present, or None when clean."""
        return max(
            (d.severity for d in self.diagnostics),
            key=lambda s: s.rank,
            default=None,
        )

    def at_or_above(self, threshold: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity.at_least(threshold))

    def to_dict(self) -> dict[str, object]:
        return {
            "design": self.unit_name,
            "counts": self.counts,
            "rules_run": list(self.rules_run),
            "elapsed_s": round(self.elapsed_s, 6),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


@dataclass(frozen=True)
class Analyzer:
    """A configured lint pass: which rules run, in catalog order."""

    select: tuple[str, ...] | None = None
    ignore: tuple[str, ...] = ()
    _resolved: tuple[str, ...] = field(init=False, repr=False, default=())

    def __post_init__(self) -> None:
        known = set(RULES)
        for rid in (self.select or ()) + tuple(self.ignore):
            if rid not in known:
                raise EbdaError(
                    f"unknown rule id {rid!r}; known rules:"
                    f" {', '.join(sorted(known))}"
                )
        if self.select is None:
            chosen = [rid for rid, info in RULES.items() if info.default_enabled]
        else:
            chosen = [rid for rid in RULES if rid in self.select]
        resolved = tuple(rid for rid in sorted(chosen) if rid not in self.ignore)
        object.__setattr__(self, "_resolved", resolved)

    @property
    def enabled_rules(self) -> tuple[str, ...]:
        """The rule IDs this analyzer will attempt, in ID order."""
        return self._resolved

    def run(self, unit: DesignUnit) -> AnalysisReport:
        """Execute every enabled (and applicable) rule over one unit."""
        start = time.perf_counter()
        diagnostics: list[Diagnostic] = []
        ran: list[str] = []
        with current_tracer().span("lint.unit", unit=unit.name) as span:
            for rid in self._resolved:
                info = RULES[rid]
                if info.requires_topology and unit.topology is None:
                    continue
                ran.append(rid)
                for diag in info.func(unit):
                    if diag.design != unit.name:
                        diag = Diagnostic(
                            rule=diag.rule,
                            severity=diag.severity,
                            message=diag.message,
                            location=diag.location,
                            hint=diag.hint,
                            design=unit.name,
                        )
                    diagnostics.append(diag)
            span.set(rules=len(ran), diagnostics=len(diagnostics))
        return AnalysisReport(
            unit_name=unit.name,
            diagnostics=tuple(diagnostics),
            rules_run=tuple(ran),
            elapsed_s=time.perf_counter() - start,
        )

    def run_many(self, units: Iterable[DesignUnit]) -> list[AnalysisReport]:
        return [self.run(u) for u in units]


def lint_design(
    unit: DesignUnit,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] = (),
) -> AnalysisReport:
    """One-shot convenience: lint a unit with an ad-hoc rule selection."""
    return Analyzer(
        select=tuple(select) if select is not None else None,
        ignore=tuple(ignore),
    ).run(unit)


def static_errors(
    unit: DesignUnit, *, rules: Iterable[str] = THEOREM_MIRROR_RULES
) -> tuple[str, ...]:
    """Error-level findings from the theorem-mirror rules, as flat strings.

    This is the static analyzer's *oracle face*: the differential fuzzer
    calls it as its fourth verdict and cross-checks it against the theorem
    oracle on every trial (the two must agree by construction — EBDA001-005
    consume the exact same violation streams).
    """
    wanted = tuple(rules)
    report = Analyzer(select=wanted).run(unit)
    return tuple(
        f"{d.rule}: {d.message}"
        for d in report.diagnostics
        if d.severity is Severity.ERROR
    )
