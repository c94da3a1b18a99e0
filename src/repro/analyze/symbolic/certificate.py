"""Machine-checkable proof objects for symbolic EBDA verdicts.

A :class:`Certificate` records one rule evaluation over a *parametric*
design family: the rule ID, the verdict (clean / violation / inapplicable
with a violation *region* over the free variables), the premises the
derivation leaned on, and the arithmetic witnesses that make the verdict
re-checkable.  The whole payload is sealed with a SHA-256 content digest
over a canonical JSON form, so any post-hoc mutation — a flipped byte, an
edited witness, a forged verdict — is detectable without re-running the
prover.

The deliberately independent re-validator lives in
:mod:`repro.analyze.certcheck`; it parses certificates from their JSON
form and re-derives the arithmetic with its own small implementation,
importing nothing from this package beyond the file format documented
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.store import canonical_json, digest

__all__ = [
    "CERT_SCHEMA",
    "Certificate",
    "canonical_json",
    "content_digest",
    "describe_domain",
    "describe_region",
    "region_all",
    "region_holds",
    "region_k_ge",
    "region_n_ge",
    "region_none",
]

#: Bump when the certificate payload changes shape.
CERT_SCHEMA = 1

#: Statuses a certificate may carry.
STATUSES = ("clean", "violation", "inapplicable")


def content_digest(payload: dict[str, Any]) -> str:
    """``sha256:<hex>`` over the canonical JSON of ``payload``.

    Any byte flip in the :func:`repro.store.canonical_json` form changes
    either the parsed value or the validity of the JSON.
    """
    return "sha256:" + digest(canonical_json(payload), 64)


# ---------------------------------------------------------------------------
# Violation regions: where (in the free-variable domain) a rule fires
# ---------------------------------------------------------------------------

def region_none() -> dict[str, Any]:
    """The empty region: the rule fires at no (n, k) in the domain."""
    return {"kind": "none"}


def region_all() -> dict[str, Any]:
    """The full region: the rule fires at every (n, k) in the domain."""
    return {"kind": "all"}


def region_n_ge(n0: int) -> dict[str, Any]:
    """The half-line ``n >= n0`` (radix-independent threshold)."""
    return {"kind": "n-ge", "n0": n0}


def region_k_ge(k0: int) -> dict[str, Any]:
    """The half-line ``k >= k0`` (dimension-independent threshold)."""
    return {"kind": "k-ge", "k0": k0}


def region_holds(region: dict[str, Any], n: int, k: int) -> bool:
    """Does the violation region contain the instantiation point (n, k)?"""
    kind = region.get("kind")
    if kind == "none":
        return False
    if kind == "all":
        return True
    if kind == "n-ge":
        return n >= int(region["n0"])
    if kind == "k-ge":
        return k >= int(region["k0"])
    raise ValueError(f"unknown region kind {kind!r}")


def describe_region(region: dict[str, Any]) -> str:
    """A violation region in words, e.g. ``all n >= 2``."""
    kind = region.get("kind")
    if kind == "none":
        return "nowhere"
    if kind == "all":
        return "every (n, k) in the domain"
    if kind == "n-ge":
        return f"all n >= {region['n0']}"
    if kind == "k-ge":
        return f"all k >= {region['k0']}"
    return f"region {region!r}"


def describe_domain(domain: dict[str, Any]) -> str:
    """A free-variable domain in words, e.g. ``n >= 2, k >= 2``."""
    n = domain["n"]
    shape = f"n >= {n['min']}" if n["max"] is None else f"n = {n['min']}"
    return f"{shape}, k >= {domain['k']['min']}"


# ---------------------------------------------------------------------------
# The certificate proper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """One sealed rule evaluation over a parametric design family.

    Attributes
    ----------
    rule:
        The EBDA rule ID this certificate proves (e.g. ``"EBDA005"``).
    family:
        The symbolic family name the verdict quantifies over.
    status:
        ``"clean"`` (the rule fires nowhere in the domain),
        ``"violation"`` (it fires exactly on ``region``), or
        ``"inapplicable"`` (the rule's premise does not transfer to this
        family's topology kind; the reason is recorded in ``premises``).
    domain:
        The free-variable domain, ``{"n": {"min": .., "max": ..},
        "k": {"min": .., "max": ..}}`` with ``None`` for unbounded.
    region:
        The violation region (see :func:`region_holds`).  ``none`` for
        clean certificates.
    premises:
        Named facts the derivation uses, each a JSON object with at least
        a ``"fact"`` key.  Structural axioms (e.g. "a mesh has no closed
        unidirectional link walk") appear here by name so the checker can
        confirm they are applied to the right topology kind.
    witnesses:
        The arithmetic that makes the verdict re-checkable: pair-count
        affine forms, turn-order indices, ring transition relations and
        their closures, channel-count comparisons.  Always includes the
        full family description under ``"design"`` so certificates are
        self-contained.
    digest:
        ``sha256:<hex>`` over the canonical JSON of everything above.
    """

    rule: str
    family: str
    status: str
    domain: dict[str, Any]
    region: dict[str, Any]
    premises: tuple[dict[str, Any], ...] = ()
    witnesses: dict[str, Any] = field(default_factory=dict)
    digest: str = ""

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown certificate status {self.status!r}")

    # -- sealing -----------------------------------------------------------

    def payload(self) -> dict[str, Any]:
        """The digestable content (everything but the digest itself)."""
        return {
            "schema": CERT_SCHEMA,
            "rule": self.rule,
            "family": self.family,
            "status": self.status,
            "domain": self.domain,
            "region": self.region,
            "premises": list(self.premises),
            "witnesses": self.witnesses,
        }

    def sealed(self) -> "Certificate":
        """A copy with the digest computed over the current payload."""
        return Certificate(
            rule=self.rule,
            family=self.family,
            status=self.status,
            domain=self.domain,
            region=self.region,
            premises=self.premises,
            witnesses=self.witnesses,
            digest=content_digest(self.payload()),
        )

    # -- evaluation --------------------------------------------------------

    def violates_at(self, n: int, k: int) -> bool:
        """Does this certificate predict an error diagnostic at (n, k)?"""
        return self.status == "violation" and region_holds(self.region, n, k)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        d = self.payload()
        d["digest"] = self.digest
        return d

    def to_json(self) -> str:
        """Canonical JSON including the digest (the on-disk form)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Certificate":
        return cls(
            rule=str(d["rule"]),
            family=str(d["family"]),
            status=str(d["status"]),
            domain=dict(d["domain"]),
            region=dict(d["region"]),
            premises=tuple(dict(p) for p in d["premises"]),
            witnesses=dict(d["witnesses"]),
            digest=str(d.get("digest", "")),
        )
