"""The differential instantiation gate: symbolic vs concrete, point-wise.

A symbolic certificate claims a rule verdict for *every* ``(n, k)`` in a
family's domain.  This module spot-checks that claim: instantiate the
family at concrete points, run the concrete :class:`~repro.analyze.Analyzer`
over exactly the rules the certificates cover, and compare error sets.
Any disagreement is a bug in the prover, the concrete rules, or the
family description — all three are worth an alarm, which is why the check
runs as a fuzz oracle (``repro fuzz --instantiations``) and as
``repro certify --gate``, which CI runs at 500 random points.

For the Algorithm-1 closed form the gate additionally asserts the schema
reproduces :func:`repro.core.partitioning.partition_vc_budget` verbatim,
so the "closed form of Algorithm 1" claim in the family note is itself
machine-checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.analyze.engine import Analyzer
from repro.analyze.symbolic.design import (
    SYMBOLIC_FAMILIES,
    SymbolicDesign,
    symbolic_family,
)
from repro.analyze.symbolic.prover import SymbolicReport, certify
from repro.analyze.unit import DesignUnit
from repro.core.partitioning import partition_vc_budget
from repro.errors import EbdaError
from repro.topology.base import Topology
from repro.topology.classes import NAMED_RULES
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus

__all__ = [
    "DifferentialResult",
    "Disagreement",
    "check_family_at",
    "concrete_errors",
    "differential_gate",
    "sample_point",
    "topology_at",
    "unit_at",
]

#: Instantiation bounds keeping concrete lint runs cheap: dimensions stay
#: small (EBDA008 enumerates 3^n requirement sets) and radices modest
#: (EBDA005 walks n * k^(n-1) rings of length k per sign).
_N_MAX = {"mesh": 4, "torus": 3, "dragonfly": 2, "fattree": 1}
_K_MAX = {"mesh": 7, "torus": 7, "dragonfly": 6, "fattree": 5}


def topology_at(design: SymbolicDesign, n: int, k: int) -> Topology:
    """The concrete carrier topology for one instantiation point."""
    if design.kind == "mesh":
        return Mesh(*([k] * n))
    if design.kind == "torus":
        return Torus(*([k] * n))
    if design.kind == "dragonfly":
        return Dragonfly(groups=k)
    if design.kind == "fattree":
        return FatTree(leaves=k, spines=2, hosts_per_leaf=2)
    raise EbdaError(f"unknown topology kind {design.kind!r}")


def unit_at(design: SymbolicDesign, n: int, k: int) -> DesignUnit:
    """Instantiate a family at a concrete (n, k) as a lintable unit."""
    if not design.contains(n, k):
        raise EbdaError(
            f"point (n={n}, k={k}) is outside the domain of {design.name!r}"
        )
    return DesignUnit(
        sequence=design.sequence_at(n),
        turnset=design.turnset_at(n),
        name=f"{design.name}@n{n}k{k}",
        topology=topology_at(design, n, k),
        rule=NAMED_RULES[design.rule_name],
        claims_fully_adaptive=design.claims_fully_adaptive,
    )


def concrete_errors(
    design: SymbolicDesign, n: int, k: int, rules: tuple[str, ...]
) -> frozenset[str]:
    """Error rule IDs the concrete linter emits at one point."""
    report = Analyzer(select=rules).run(unit_at(design, n, k))
    return frozenset(d.rule for d in report.errors)


def sample_point(
    design: SymbolicDesign, rng: random.Random
) -> tuple[int, int]:
    """A uniform instantiation point inside the family's sampling box."""
    if design.n_fixed is not None:
        n = design.n_fixed
    else:
        n = rng.randint(design.n_min, max(design.n_min, _N_MAX[design.kind]))
    k = rng.randint(design.k_min, max(design.k_min, _K_MAX[design.kind]))
    return n, k


@dataclass(frozen=True)
class Disagreement:
    """One point where symbolic and concrete verdicts differ."""

    family: str
    n: int
    k: int
    symbolic: tuple[str, ...]
    concrete: tuple[str, ...]

    def describe(self) -> str:
        return (
            f"{self.family} at (n={self.n}, k={self.k}): symbolic predicts"
            f" {list(self.symbolic) or 'clean'}, concrete lint found"
            f" {list(self.concrete) or 'clean'}"
        )


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of a differential sweep over instantiation points."""

    points: int
    families: tuple[str, ...]
    disagreements: tuple[Disagreement, ...] = ()
    checked: tuple[tuple[str, int, int], ...] = field(default=(), repr=False)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> dict[str, Any]:
        return {
            "points": self.points,
            "families": list(self.families),
            "ok": self.ok,
            "disagreements": [
                {
                    "family": d.family,
                    "n": d.n,
                    "k": d.k,
                    "symbolic": list(d.symbolic),
                    "concrete": list(d.concrete),
                }
                for d in self.disagreements
            ],
        }


def check_family_at(
    report: SymbolicReport, n: int, k: int
) -> Disagreement | None:
    """Compare one family's certificates against the concrete linter."""
    design = symbolic_family(report.family)
    rules = report.applicable_rules
    symbolic = report.errors_at(n, k)
    concrete = concrete_errors(design, n, k, rules)
    if symbolic == concrete:
        return None
    return Disagreement(
        family=design.name,
        n=n,
        k=k,
        symbolic=tuple(sorted(symbolic)),
        concrete=tuple(sorted(concrete)),
    )


def _check_algorithm1_form(design: SymbolicDesign, n: int) -> None:
    """Assert the schema equals Algorithm 1's own output at ``n``."""
    ours = design.sequence_at(n).arrow_notation()
    theirs = partition_vc_budget([1] * n).arrow_notation()
    if ours != theirs:
        raise EbdaError(
            f"family {design.name!r} claims the Algorithm-1 closed form but"
            f" diverges at n={n}: schema {ours!r} vs algorithm {theirs!r}"
        )


def differential_gate(
    names: tuple[str, ...] | None = None,
    *,
    points: int = 500,
    seed: int = 0,
) -> DifferentialResult:
    """Cross-check symbolic verdicts at random points across families.

    Every family gets at least one point; the rest are spread uniformly.
    Raises nothing on disagreement — the result carries the evidence so
    callers (CLI, CI gate, fuzz oracle) choose how loudly to fail.
    """
    chosen = tuple(sorted(SYMBOLIC_FAMILIES)) if names is None else names
    if points < len(chosen):
        raise EbdaError(
            f"need at least one point per family ({len(chosen)}), got {points}"
        )
    rng = random.Random(seed)
    reports = {name: certify(name) for name in chosen}
    disagreements: list[Disagreement] = []
    checked: list[tuple[str, int, int]] = []
    for i in range(points):
        name = chosen[i % len(chosen)]
        design = symbolic_family(name)
        n, k = sample_point(design, rng)
        if design.algorithm1:
            _check_algorithm1_form(design, n)
        checked.append((name, n, k))
        miss = check_family_at(reports[name], n, k)
        if miss is not None:
            disagreements.append(miss)
    return DifferentialResult(
        points=points,
        families=chosen,
        disagreements=tuple(disagreements),
        checked=tuple(checked),
    )
