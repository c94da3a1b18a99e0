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
