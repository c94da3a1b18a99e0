"""The verb table: each CLI verb is defined once, and every verb that takes
``--ledger`` records through the one CLI ledger helper."""

import ast
import json
from pathlib import Path

import pytest

from repro.cli import VERBS, build_parser, main
from repro.obs import RunLedger, set_ledger
from repro.obs.ledger import outcome_digest

CLI_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro" / "cli"

#: A small invocation per recording verb, and the record kind it appends.
#: ``simulate`` appears twice: a plain point and a faulted one.
SMALL = {
    "run": [(["run", "Fig4"], "experiment")],
    "simulate": [
        (["simulate", "xy", "--mesh", "4x4", "--cycles", "150"], "run_point"),
        (["simulate", "xy", "--mesh", "4x4", "--cycles", "150", "--drops", "1"],
         "run_point"),
    ],
    "sweep": [(["sweep", "xy", "--mesh", "4x4", "--rates", "0.05", "--cycles", "150"],
               "sweep")],
    "lint": [(["lint", "odd-even"], "lint")],
    "certify": [(["certify", "alg1-mesh"], "certify")],
    "exists": [(["exists", "{ring}"], "exists")],
    "chaos": [(["chaos", "--trials", "2", "--cycles", "100", "--quiet"], "chaos")],
    "fuzz": [(["fuzz", "--runs", "2", "--fast", "--quiet"], "fuzz")],
}


@pytest.fixture(autouse=True)
def _no_ambient_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_EBDA_LEDGER_DIR", raising=False)
    previous = set_ledger(None)
    yield
    set_ledger(previous)


@pytest.fixture
def ring(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 0]]}))
    return path


def _subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def _accepts_ledger(verb) -> bool:
    return "--ledger" in _subparsers()[verb.name]._option_string_actions


def test_parser_is_derived_from_the_table():
    subparsers = _subparsers()
    assert list(subparsers) == [verb.name for verb in VERBS] == [
        "list", "run", "verify", "design", "logic", "simulate", "sweep",
        "backends", "inspect", "lint", "certify", "exists", "chaos", "fuzz",
        "runs", "top",
    ]
    for verb in VERBS:
        assert subparsers[verb.name].get_default("func") is verb.run


# `runs --ledger DIR` names the ledger it reads; it records nothing.
RECORDING = [v.name for v in VERBS if v.name != "runs" and _accepts_ledger(v)]


def test_every_recording_verb_has_a_small_invocation():
    assert sorted(RECORDING) == sorted(SMALL)


@pytest.mark.parametrize(
    "argv, kind",
    [case for name in RECORDING for case in SMALL[name]],
    ids=lambda value: " ".join(value[:2]) if isinstance(value, list) else value,
)
def test_ledger_flag_records(argv, kind, tmp_path, ring, capsys):
    ledger = tmp_path / "ledger"
    argv = [str(ring) if arg == "{ring}" else arg for arg in argv]
    main(argv + ["--ledger", str(ledger)])
    records = RunLedger(ledger).records()
    assert records, f"{' '.join(argv)} --ledger wrote no record"
    assert {r.kind for r in records} == {kind}


def test_exists_record_digests_the_json_report(tmp_path, ring, capsys):
    ledger = tmp_path / "ledger"
    assert main(["exists", str(ring), "--format", "json", "--ledger", str(ledger)]) == 1
    report = json.loads(capsys.readouterr().out)
    (record,) = RunLedger(ledger).records()
    assert record.outcome == "cyclic"
    assert record.spec.startswith("graph:") and len(record.spec) == len("graph:") + 16
    assert record.digest == outcome_digest(report)


def test_run_records_one_experiment_per_id(tmp_path, capsys):
    ledger = tmp_path / "ledger"
    assert main(["run", "Fig4", "Fig5", "--ledger", str(ledger)]) == 0
    records = RunLedger(ledger).records()
    assert [(r.kind, r.spec, r.outcome) for r in records] == [
        ("experiment", "Fig4", "ok"), ("experiment", "Fig5", "ok"),
    ]


def test_simulate_direct_spec_ignores_output_paths(tmp_path, capsys):
    ledger = tmp_path / "ledger"
    base = ["simulate", "xy", "--mesh", "4x4", "--cycles", "150", "--ledger", str(ledger)]
    main(base)
    main(base + ["--metrics-out", str(tmp_path / "a.jsonl")])
    main(base + ["--metrics-out", str(tmp_path / "b.jsonl")])
    main(base + ["--trace-out", str(tmp_path / "t.jsonl")])
    records = RunLedger(ledger).records()
    assert len(records) == 4
    # Observers do not enter a point's identity: metered, traced and plain
    # runs of one point are one run with one outcome.
    assert len({(r.kind, r.spec, r.run_id, r.digest) for r in records}) == 1


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(CLI_PACKAGE.glob("*.py"))}


def test_record_run_is_called_from_one_function():
    callers = []
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "record_run"
                    or getattr(node.func, "attr", None) == "record_run"
                ):
                    callers.append(f"{name}:{func.name}")
    assert sorted(set(callers)) == ["__init__.py:record"]


def test_no_private_imports_from_other_packages():
    offenders = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if (node.module or "").startswith("repro.cli"):
                continue
            offenders += [
                f"{name}:{node.lineno} {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []
