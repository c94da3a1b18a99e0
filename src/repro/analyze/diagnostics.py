"""Diagnostic records, severities and the rule registry.

A :class:`Diagnostic` is one structured finding of the static analyzer:
a stable rule ID (``EBDA001``...), a severity, a human message, a
:class:`Location` pointing into the *design* (partition index, turn,
channel class — designs have no source files, so locations are logical),
and an optional fix hint.

Rules self-register through :func:`register_rule`; :data:`RULES` is the
catalog reporters and the CLI consume (IDs, titles, paper citations).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.store import digest

if TYPE_CHECKING:
    from repro.analyze.unit import DesignUnit

__all__ = [
    "RULES",
    "Diagnostic",
    "Location",
    "RuleInfo",
    "Severity",
    "register_rule",
    "rule_ids",
]


class Severity(str, Enum):
    """Diagnostic severity, ordered ``ERROR > WARNING > NOTE``.

    The names map one-to-one onto SARIF 2.1.0 result levels.
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        """Numeric rank for threshold comparisons (higher = more severe)."""
        return {"error": 3, "warning": 2, "note": 1}[self.value]

    def at_least(self, other: Severity) -> bool:
        """True when this severity is at least as severe as ``other``."""
        return self.rank >= other.rank


@dataclass(frozen=True)
class Location:
    """A logical location inside an EbDa design.

    Any subset of the fields may be set; :meth:`describe` renders the most
    specific available form.  ``partition`` is the 0-based index into the
    partition sequence (the paper's reading order).
    """

    partition: int | None = None
    partition_name: str = ""
    channel: str = ""
    turn: str = ""

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``P0(PA) turn X+->Y-``."""
        parts: list[str] = []
        if self.partition is not None:
            tag = f"P{self.partition}"
            if self.partition_name:
                tag += f"({self.partition_name})"
            parts.append(tag)
        elif self.partition_name:
            parts.append(self.partition_name)
        if self.channel:
            parts.append(f"channel {self.channel}")
        if self.turn:
            parts.append(f"turn {self.turn}")
        return " ".join(parts) or "design"

    def fully_qualified(self, design: str) -> str:
        """SARIF ``fullyQualifiedName``: design-rooted logical path."""
        return f"{design or 'design'}::{self.describe()}"

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {}
        if self.partition is not None:
            out["partition"] = self.partition
        if self.partition_name:
            out["partition_name"] = self.partition_name
        if self.channel:
            out["channel"] = self.channel
        if self.turn:
            out["turn"] = self.turn
        return out


@dataclass(frozen=True)
class Diagnostic:
    """One finding: rule, severity, message, design location, fix hint."""

    rule: str
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)
    hint: str = ""
    design: str = ""

    def fingerprint(self) -> str:
        """Stable identity for baselines and SARIF ``partialFingerprints``.

        Deliberately excludes the message text (wording may be polished
        without invalidating baselines): rule + design + location.
        """
        key = "\x1f".join(
            (
                self.rule,
                self.design,
                str(self.location.partition),
                self.location.partition_name,
                self.location.channel,
                self.location.turn,
            )
        )
        return digest(key, 16)

    def render(self) -> str:
        """One-line human form: ``EBDA001 error P0(PA): message``."""
        line = f"{self.rule} {self.severity.value:7s} {self.location.describe()}: {self.message}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location.to_dict(),
            "fingerprint": self.fingerprint(),
        }
        if self.hint:
            out["hint"] = self.hint
        if self.design:
            out["design"] = self.design
        return out


#: A rule implementation: yields diagnostics for one design unit.
RuleFunc = Callable[["DesignUnit"], Iterator[Diagnostic]]


@dataclass(frozen=True)
class RuleInfo:
    """Registry metadata for one lint rule."""

    id: str
    title: str
    severity: Severity
    #: Paper grounding, e.g. ``"Theorem 1"`` or ``"Section 4"``.
    citation: str
    func: RuleFunc
    #: Topology-dependent rules are skipped when the unit has no topology.
    requires_topology: bool = False
    #: Opt-in rules run only when explicitly selected.
    default_enabled: bool = True
    #: Longer description for the rule catalog / SARIF descriptors.
    description: str = ""


#: The rule catalog, keyed by stable ID, in registration (ID) order.
RULES: dict[str, RuleInfo] = {}


def register_rule(
    id: str,
    title: str,
    severity: Severity,
    citation: str,
    *,
    requires_topology: bool = False,
    default_enabled: bool = True,
    description: str = "",
) -> Callable[[RuleFunc], RuleFunc]:
    """Class-level decorator registering a rule implementation under ``id``."""

    def wrap(func: RuleFunc) -> RuleFunc:
        if id in RULES:
            raise ValueError(f"duplicate rule id {id!r}")
        RULES[id] = RuleInfo(
            id=id,
            title=title,
            severity=severity,
            citation=citation,
            func=func,
            requires_topology=requires_topology,
            default_enabled=default_enabled,
            description=description or (func.__doc__ or "").strip().split("\n")[0],
        )
        return func

    return wrap


def rule_ids(*, include_optional: bool = True) -> tuple[str, ...]:
    """All registered rule IDs, sorted."""
    return tuple(
        sorted(
            rid
            for rid, info in RULES.items()
            if include_optional or info.default_enabled
        )
    )
