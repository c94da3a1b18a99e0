"""The public verdicts are the ones a trial records.

``DifferentialOracle.run`` judges a design through the same code as the
four public verdict methods; on every corpus witness and on designs of
every family, each method must return exactly what ``run`` recorded.
"""

from pathlib import Path

import pytest

from repro.fuzz import (
    FAMILIES,
    DesignGenerator,
    DifferentialOracle,
    FuzzDesign,
    Mutation,
    fast_profile,
)
from repro.fuzz.corpus import load_corpus

CORPUS = load_corpus(Path(__file__).parent / "corpus")
GENERATED = [
    DesignGenerator(seed=3, families=(family,)).design_for(trial)
    for family in FAMILIES
    for trial in range(3)
]

VALID_MESH = FuzzDesign("mesh", (3, 3), "X+ X- Y+ -> Y-", label="valid:mesh-alg1")
DUP_PAIR_2X2 = FuzzDesign(
    "mesh",
    (2, 2),
    "X+ X- Y+ -> Y-",
    mutations=(Mutation("duplicate-pair", partition=0, channels="Y2+ Y2-"),),
    label="mutant:duplicate-pair",
)


@pytest.fixture(scope="module")
def oracle():
    return DifferentialOracle(fast_profile())


def test_corpus_and_generated_designs_are_covered():
    assert len(CORPUS) == 9
    families = {design.topology_kind for design in GENERATED}
    assert families == set(FAMILIES)
    engines = {design.engine for design in GENERATED}
    assert "table" in engines and len(engines) > 1


@pytest.mark.parametrize(
    "design",
    [entry.design for entry in CORPUS] + GENERATED,
    ids=[entry.id for entry in CORPUS]
    + [f"{d.topology_kind}-{i % 3}" for i, d in enumerate(GENERATED)],
)
def test_public_verdicts_equal_the_trial(oracle, design):
    result = oracle.run(design)
    assert result.error is None
    assert oracle.theorem_verdict(design) == (
        result.theorem_safe,
        result.theorem_violations,
    )
    assert oracle.static_verdict(design) == (result.static_safe, result.static_errors)
    cdg = oracle.cdg_verdict(design)
    assert (
        cdg.acyclic,
        cdg.wires,
        cdg.dependencies,
        tuple(str(w) for w in cdg.cycle),
    ) == (
        result.cdg_acyclic,
        result.cdg_wires,
        result.cdg_dependencies,
        result.cdg_cycle,
    )
    arbitrary = oracle.arbitrary_verdict(design)
    assert (arbitrary.safe, arbitrary.core, arbitrary.cycle) == (
        result.arbitrary_safe,
        result.arbitrary_core,
        result.arbitrary_cycle,
    )


def test_adversarial_record_keys(oracle):
    result = oracle.run(VALID_MESH)
    assert [list(run) for run in result.sim_runs] == [
        ["kind", "pattern", "seed", "deadlocked", "cycles", "delivered", "backend_agree"]
    ] * 2


def test_crafted_ring_record_keys(oracle):
    result = oracle.run(DUP_PAIR_2X2)
    (crafted,) = result.sim_runs
    assert crafted["kind"] == "crafted-ring" and crafted["deadlocked"]
    assert list(crafted) == ["kind", "ring", "deadlocked", "cycles", "backend_agree"]
