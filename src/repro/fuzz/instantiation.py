"""The instantiation oracle: symbolic certificates vs the concrete linter.

The sixth fuzz oracle is different in kind from the other five: instead
of judging one random design with several engines, it judges the
*symbolic prover* — every parametric family's certificates are
instantiated at random ``(n, k)`` points and cross-checked against the
concrete analyzer (:func:`repro.analyze.symbolic.differential_gate`).
A disagreement means the closed-form derivation and the concrete rule
implementation have diverged, which is precisely the class of bug no
single-engine oracle can see.

Wired into ``repro fuzz --instantiations N`` and ``repro certify
--gate N``, which CI runs at 500 points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analyze.symbolic import Disagreement as PointDisagreement
from repro.analyze.symbolic import differential_gate

__all__ = ["InstantiationReport", "PointDisagreement", "run_instantiations"]


@dataclass(frozen=True)
class InstantiationReport:
    """Outcome of one instantiation-oracle campaign."""

    points: int
    families: tuple[str, ...]
    disagreements: tuple[PointDisagreement, ...]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        verdict = (
            "all symbolic verdicts confirmed"
            if self.ok
            else f"{len(self.disagreements)} DISAGREEMENT(S)"
        )
        lines = [
            f"instantiation oracle: {self.points} points over"
            f" {len(self.families)} families in {self.elapsed_s:.1f}s —"
            f" {verdict}"
        ]
        lines.extend(f"  {d.describe()}" for d in self.disagreements)
        return "\n".join(lines)


def run_instantiations(
    points: int = 200,
    *,
    seed: int = 0,
    families: tuple[str, ...] | None = None,
) -> InstantiationReport:
    """Run the symbolic-vs-concrete differential at random points."""
    start = time.perf_counter()
    result = differential_gate(families, points=points, seed=seed)
    return InstantiationReport(
        points=result.points,
        families=result.families,
        disagreements=result.disagreements,
        elapsed_s=time.perf_counter() - start,
    )
