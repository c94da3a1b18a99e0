"""Common experiment harness types.

Every table/figure of the paper has one module here exposing ``run()``,
which returns an :class:`ExperimentResult`:

* ``text`` — the regenerated table/figure content, printable;
* ``data`` — the same content as structured values for tests;
* ``checks`` — named pass/fail comparisons against the paper's claims.

``repro run`` prints ``text`` and the checks; EXPERIMENTS.md records the
check outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True)
class Check:
    """One paper-vs-measured comparison."""

    name: str
    expected: object
    measured: object
    passed: bool
    note: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return f"[{mark}] {self.name}: paper={self.expected!r} measured={self.measured!r}{extra}"


def check_eq(name: str, expected: object, measured: object, note: str = "") -> Check:
    """Equality check."""
    return Check(name, expected, measured, expected == measured, note)


def check_true(name: str, measured: bool, note: str = "") -> Check:
    """Boolean check."""
    return Check(name, True, measured, bool(measured), note)


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one reproduced experiment."""

    exp_id: str
    title: str
    text: str
    data: Mapping[str, Any]
    checks: tuple[Check, ...] = ()

    @property
    def passed(self) -> bool:
        """All checks passed."""
        return all(c.passed for c in self.checks)

    def report(self) -> str:
        """Full printable report: banner, content, checks."""
        lines = [f"== {self.exp_id}: {self.title} ==", self.text, ""]
        lines.extend(str(c) for c in self.checks)
        return "\n".join(lines)

    def require(self) -> "ExperimentResult":
        """Raise AssertionError when any check failed (test hook)."""
        failed = [c for c in self.checks if not c.passed]
        if failed:
            raise AssertionError(
                f"{self.exp_id} failed checks:\n" + "\n".join(str(c) for c in failed)
            )
        return self
