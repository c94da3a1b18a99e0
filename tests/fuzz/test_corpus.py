"""Corpus persistence, replay, and detection of every committed witness."""

import json
from pathlib import Path

import pytest

from repro.errors import EbdaError
from repro.fuzz import (
    CorpusEntry,
    DifferentialOracle,
    FuzzDesign,
    Mutation,
    entry_id,
    fast_profile,
    load_corpus,
    load_entry,
    replay_entry,
    save_entry,
)

COMMITTED = Path(__file__).parent / "corpus"


@pytest.fixture(scope="module")
def oracle():
    return DifferentialOracle(fast_profile())


def _sample_entry() -> CorpusEntry:
    return CorpusEntry(
        design=FuzzDesign(
            "mesh",
            (2, 2),
            "X+ X- Y+ -> Y-",
            mutations=(
                Mutation("duplicate-pair", partition=0, channels="Y2+ Y2-"),
            ),
            label="mutant:duplicate-pair",
        ),
        expect="unsafe-flagged",
        note="round-trip test entry",
        origin={"seed": 0, "trial": 42, "found-by": "test"},
    )


def test_entry_round_trips_through_disk(tmp_path):
    entry = _sample_entry()
    path = save_entry(entry, tmp_path)
    loaded = load_entry(path)
    assert loaded.design == entry.design
    assert loaded.expect == entry.expect
    assert loaded.origin == entry.origin
    assert loaded.id == entry.id


def test_entry_id_is_content_addressed(tmp_path):
    entry = _sample_entry()
    first = save_entry(entry, tmp_path)
    second = save_entry(entry, tmp_path)
    assert first == second  # idempotent
    other = CorpusEntry(
        design=FuzzDesign("mesh", (3, 3), "X+ X- Y+ -> Y-"),
        expect="safe-confirmed",
    )
    assert entry_id(other.design) != entry.id


def test_load_corpus_sorts_and_skips_missing_dir(tmp_path):
    assert load_corpus(tmp_path / "nope") == []
    save_entry(_sample_entry(), tmp_path)
    entries = load_corpus(tmp_path)
    assert len(entries) == 1


def test_corrupt_entry_raises_ebda_error(tmp_path):
    bad = tmp_path / "fuzz-deadbeef.json"
    bad.write_text("{not json")
    with pytest.raises(EbdaError):
        load_entry(bad)


@pytest.mark.parametrize(
    "restamp_id,rename", [(False, False), (True, False), (False, True)],
    ids=["stale-id-and-name", "stale-name", "stale-id"],
)
def test_edited_entry_rejected(tmp_path, restamp_id, rename):
    # Editing a committed witness without re-saving it leaves its stored
    # id and/or file name pointing at content that no longer exists.
    stale = "01b9c1dc1a47"
    data = json.loads((COMMITTED / f"fuzz-{stale}.json").read_text())
    data["design"]["label"] = "edited"
    data["expect"] = "clean"
    fresh = entry_id(FuzzDesign.from_dict(data["design"]))
    assert fresh != stale
    if restamp_id:
        data["id"] = fresh
    path = tmp_path / f"fuzz-{fresh if rename else stale}.json"
    path.write_text(json.dumps(data))
    with pytest.raises(EbdaError, match="content id"):
        load_entry(path)


@pytest.mark.parametrize(
    "path", sorted(COMMITTED.glob("fuzz-*.json")), ids=lambda p: p.stem
)
def test_committed_entry_resaves_byte_identically(path, tmp_path):
    saved = save_entry(load_entry(path), tmp_path)
    assert saved.name == path.name
    assert saved.read_bytes() == path.read_bytes()


def test_committed_corpus_exists_and_is_well_formed():
    entries = load_corpus(COMMITTED)
    assert len(entries) >= 5
    kinds = set()
    families = set()
    for entry in entries:
        assert entry.expect == "unsafe-flagged"
        assert entry.note
        # Filenames match content hashes (no stale hand-edits).
        path = COMMITTED / f"fuzz-{entry.id}.json"
        assert path.is_file()
        assert json.loads(path.read_text())["id"] == entry.id
        kinds.add(entry.design.label)
        families.add(entry.design.topology_kind)
    assert len(kinds) >= 3  # distinct failure modes, not five clones
    # Beyond-mesh coverage: at least one dragonfly, fat-tree and
    # irregular witness rides in the committed corpus.
    assert {"dragonfly", "fattree", "irregular"} <= families


@pytest.mark.parametrize(
    "path", sorted(COMMITTED.glob("fuzz-*.json")), ids=lambda p: p.stem
)
def test_every_committed_witness_flagged_by_all_five_oracles(path, oracle):
    entry = load_entry(path)
    detected, trial = replay_entry(entry, oracle)
    assert detected, f"{path.name}: got {trial.classification}"
    assert not trial.theorem_safe
    assert not trial.static_safe
    assert not trial.cdg_acyclic
    assert not trial.arbitrary_safe
    assert trial.sim_deadlock
    assert trial.all_flagged
