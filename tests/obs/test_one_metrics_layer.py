"""One metrics layer: simulator telemetry lives in :mod:`repro.sim.metrics`;
every other number is held by the report the call returns (``SweepReport``,
``FuzzReport``, ``CampaignReport``, heartbeats, ledger records), so there
is no process-wide registry, and the symbolic differential gate runs one
way, as ``repro certify --gate N``."""

import ast
from pathlib import Path

import pytest

import repro.fuzz
import repro.obs
from repro.cli import main

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

REMOVED_OBS_NAMES = (
    "REGISTRY", "MetricsRegistry", "Counter", "Gauge", "Histogram", "METRICS_SCHEMA",
)


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_a_process_metrics_registry():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "repro.obs.metrics" in set(_imported_modules(ast.parse(path.read_text())))
    ]
    assert offenders == []
    assert not (SRC / "obs" / "metrics.py").exists()


@pytest.mark.parametrize("name", REMOVED_OBS_NAMES)
def test_obs_exports_no_registry_names(name):
    assert not hasattr(repro.obs, name)
    assert name not in repro.obs.__all__


def test_fuzz_has_no_second_differential_gate():
    assert not hasattr(repro.fuzz, "run_instantiations")
    assert "run_instantiations" not in repro.fuzz.__all__


def test_fuzz_instantiations_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--instantiations", "5"])
    assert exc.value.code == 2
    assert "--instantiations" in capsys.readouterr().err
