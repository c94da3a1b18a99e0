"""Differential verification fuzzing for EbDa designs.

Cross-checks the five independent safety oracles this repository
implements — the EbDa theorems (class-level), the static analyzer's
mirror rules, Dally CDG acyclicity (concrete), wormhole simulation with
a deadlock watchdog (dynamic), and the arbitrary-network existence
condition (:mod:`repro.core.arbitrary`) — over seeded random designs and
deliberate mutants across five topology families (mesh, torus,
dragonfly, fat-tree, irregular), shrinking any disagreement to a minimal
replayable witness.  A sixth oracle judges the *symbolic prover*
instead: :func:`repro.analyze.symbolic.differential_gate` (``repro
certify --gate N``) instantiates parametric certificates at random
``(n, k)`` points and compares them against the concrete linter.  See
``docs/FUZZING.md``.
"""

from repro.fuzz.corpus import (
    CorpusEntry,
    entry_id,
    load_corpus,
    load_entry,
    replay_entry,
    save_entry,
)
from repro.fuzz.design import (
    ENGINES,
    FAMILIES,
    MUTATION_KINDS,
    FuzzDesign,
    Mutation,
)
from repro.fuzz.generator import DEFAULT_FAMILIES, DesignGenerator
from repro.fuzz.oracle import (
    HARD_DISAGREEMENTS,
    DifferentialOracle,
    SimProfile,
    TrialResult,
    fast_profile,
)
from repro.fuzz.runner import (
    Disagreement,
    FuzzReport,
    replay_corpus,
    run_fuzz,
    self_check,
)
from repro.fuzz.shrink import ShrinkResult, shrink, within_witness_bound

__all__ = [
    "DEFAULT_FAMILIES",
    "ENGINES",
    "FAMILIES",
    "MUTATION_KINDS",
    "HARD_DISAGREEMENTS",
    "CorpusEntry",
    "DesignGenerator",
    "DifferentialOracle",
    "Disagreement",
    "FuzzDesign",
    "FuzzReport",
    "Mutation",
    "ShrinkResult",
    "SimProfile",
    "TrialResult",
    "entry_id",
    "fast_profile",
    "load_corpus",
    "load_entry",
    "replay_corpus",
    "replay_entry",
    "run_fuzz",
    "save_entry",
    "self_check",
    "shrink",
    "within_witness_bound",
]
