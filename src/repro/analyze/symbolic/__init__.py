"""Symbolic EBDA verification: parametric proofs with sealed certificates.

Where :class:`~repro.analyze.Analyzer` judges one concrete instantiation,
this package proves rule verdicts for *every* ``(n, k)`` in a family's
domain at once and seals each derivation into a machine-checkable
:class:`Certificate`:

* :mod:`~repro.analyze.symbolic.design` — the parametric families
  (:data:`SYMBOLIC_FAMILIES`): per-dimension stage blocks, spanning
  Algorithm-1 schemas, and radix-parametric catalog designs;
* :mod:`~repro.analyze.symbolic.prover` — closed-form re-derivations of
  EBDA001–005/008/009 (:func:`certify`);
* :mod:`~repro.analyze.symbolic.instantiate` — the differential gate
  cross-checking every symbolic verdict against the concrete linter at
  random instantiation points (:func:`differential_gate`);
* :mod:`repro.analyze.certcheck` — the deliberately independent,
  stdlib-only re-validator (kept *outside* this package so it shares no
  code with the prover).

Quick start::

    from repro.analyze.symbolic import certify
    report = certify("dateline-torus")
    assert report.ok and all(c.digest for c in report.certificates)
"""

from repro.analyze.symbolic.certificate import (
    CERT_SCHEMA,
    Certificate,
    canonical_json,
    content_digest,
    describe_domain,
    describe_region,
    region_all,
    region_holds,
    region_k_ge,
    region_n_ge,
    region_none,
)
from repro.analyze.symbolic.design import (
    CLAIMED_CATALOG,
    SYMBOLIC_FAMILIES,
    ChannelPattern,
    SpanSchema,
    StageSchema,
    SymbolicDesign,
    symbolic_family,
)
from repro.analyze.symbolic.instantiate import (
    DifferentialResult,
    Disagreement,
    check_family_at,
    concrete_errors,
    differential_gate,
    sample_point,
    topology_at,
    unit_at,
)
from repro.analyze.symbolic.prover import (
    REALIZED_DIRECTIONS,
    SYMBOLIC_RULES,
    SymbolicReport,
    certify,
    certify_all,
)

__all__ = [
    "CERT_SCHEMA",
    "CLAIMED_CATALOG",
    "REALIZED_DIRECTIONS",
    "SYMBOLIC_FAMILIES",
    "SYMBOLIC_RULES",
    "Certificate",
    "ChannelPattern",
    "DifferentialResult",
    "Disagreement",
    "SpanSchema",
    "StageSchema",
    "SymbolicDesign",
    "SymbolicReport",
    "canonical_json",
    "certify",
    "certify_all",
    "check_family_at",
    "concrete_errors",
    "content_digest",
    "describe_domain",
    "describe_region",
    "differential_gate",
    "region_all",
    "region_holds",
    "region_k_ge",
    "region_n_ge",
    "region_none",
    "sample_point",
    "symbolic_family",
    "topology_at",
    "unit_at",
]
