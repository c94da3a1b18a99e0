"""Packaging metadata: the version lives in one place, ``repro.__version__``."""

from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_reads_the_version_from_the_package():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    project = config["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
    assert isinstance(repro.__version__, str) and repro.__version__
