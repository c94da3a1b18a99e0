"""docs/API_INDEX.md is exactly what tools/gen_api_index.py renders now."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_index", ROOT / "tools" / "gen_api_index.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_index_is_current():
    committed = (ROOT / "docs" / "API_INDEX.md").read_text()
    assert _generator().render() == committed, (
        "docs/API_INDEX.md is stale: run `PYTHONPATH=src python tools/gen_api_index.py`"
    )


def test_generator_rejects_arguments(tmp_path, monkeypatch):
    generator = _generator()
    monkeypatch.setattr(generator, "OUT", tmp_path / "API_INDEX.md")
    with pytest.raises(SystemExit, match="takes no arguments"):
        generator.main(["--help"])
    assert not (tmp_path / "API_INDEX.md").exists()


def test_entries_take_the_whole_first_sentence():
    first_sentence = _generator().first_sentence
    doc = (
        "Append a run to the current ledger; no-op when no\n"
        "ledger is configured (e.g. in tests).  Later lines\n"
        "are detail.\n\nA second paragraph."
    )
    assert first_sentence(doc) == (
        "Append a run to the current ledger; no-op when no"
        " ledger is configured (e.g. in tests)."
    )
    assert first_sentence("The Odd-Even model (Fig. 10b).\n\nMore.") == (
        "The Odd-Even model (Fig. 10b)."
    )
    assert first_sentence("No period at all\nacross two lines") == (
        "No period at all across two lines"
    )
    assert first_sentence("") == ""
