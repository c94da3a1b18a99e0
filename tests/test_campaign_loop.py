"""One campaign loop for ``repro fuzz`` and ``repro chaos``.

Both campaigns batch their trials through
``repro.sim.parallel.SweepEngine.run_campaign``: it owns the batch size,
the spans, the trials counter, the per-batch heartbeat beat and progress
line, the budget check and the final ``finish`` beat.  The behaviour
tests run each campaign through it; the structure tests keep it the
only loop.
"""

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.chaos import CampaignConfig, ChaosCampaign
from repro.cli import main
from repro.fuzz import fast_profile, run_fuzz
from repro.obs import HeartbeatWriter, set_ledger

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

CHAOS = CampaignConfig(trials=12, seed=0, mesh=(4, 4), cycles=200)

#: The heartbeat fields every beat carries; the rest are the campaign's own.
BASE_FIELDS = {
    "schema", "record", "id", "kind", "state", "pid", "done", "total",
    "batch", "elapsed_s", "eta_s", "started_at", "updated_at",
}


@pytest.fixture(autouse=True)
def _no_ambient_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_EBDA_LEDGER_DIR", raising=False)
    previous = set_ledger(None)
    yield
    set_ledger(previous)


def _fuzz(runs, **kwargs):
    report = run_fuzz(runs, seed=0, profile=fast_profile(), **kwargs)
    return report.runs_completed, report.interrupted


def _chaos(runs, **kwargs):
    report = ChaosCampaign(replace(CHAOS, trials=runs)).run(**kwargs)
    return report.trials_completed, report.interrupted


CAMPAIGNS = {"fuzz": _fuzz, "chaos": _chaos}


def _run(kind, runs, tmp_path, budget_s=None):
    lines = []
    heartbeat = HeartbeatWriter(f"{kind}-loop", kind, runs, tmp_path)
    done, interrupted = CAMPAIGNS[kind](
        runs, budget_s=budget_s, progress=lines.append, heartbeat=heartbeat
    )
    return done, interrupted, lines, json.loads(heartbeat.path.read_text())


@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
class TestBehaviour:
    def test_zero_budget_runs_exactly_one_batch(self, kind, tmp_path):
        done, interrupted, lines, beat = _run(kind, 20, tmp_path, budget_s=0.0)
        assert (done, interrupted) == (8, True)
        assert beat["state"] == "interrupted" and beat["done"] == 8
        assert len(lines) == 1 and lines[0].startswith(f"{kind}: 8/20 trials (")

    def test_full_run_ends_done_with_a_line_per_batch(self, kind, tmp_path):
        done, interrupted, lines, beat = _run(kind, 12, tmp_path)
        assert (done, interrupted) == (12, False)
        assert beat["state"] == "done" and beat["done"] == 12
        assert len(lines) == 2
        assert lines[0].startswith(f"{kind}: 8/12 trials (")
        assert lines[1].startswith(f"{kind}: 12/12 trials (")

    def test_progress_fields_are_the_heartbeat_fields(self, kind, tmp_path):
        _done, _interrupted, lines, beat = _run(kind, 12, tmp_path)
        own = {k: v for k, v in beat.items() if k not in BASE_FIELDS}
        assert own
        tail = lines[-1].split(") ", 1)[1]
        assert tail == " ".join(f"{k}={v}" for k, v in own.items())


@pytest.mark.parametrize(
    "args",
    [
        ["fuzz", "--runs", "4", "--fast"],
        ["chaos", "--trials", "4", "--cycles", "200"],
    ],
    ids=["fuzz", "chaos"],
)
class TestCliProgress:
    def test_progress_goes_to_stderr(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EBDA_HEARTBEAT_DIR", str(tmp_path))
        assert main(args) == 0
        captured = capsys.readouterr()
        assert f"{args[0]}: 4/4 trials (" in captured.err
        assert f"{args[0]}: " not in captured.out
        assert list(tmp_path.glob("*.json"))

    def test_quiet_silences_progress(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EBDA_HEARTBEAT_DIR", str(tmp_path))
        assert main(args + ["--quiet"]) == 0
        assert f"{args[0]}: " not in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text())


def _function(relpath: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / relpath).read_text())
    return next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _names(node) -> set:
    return {
        getattr(n, "id", None) or getattr(n, "attr", None)
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


class TestStructure:
    def test_map_tasks_has_one_call_site(self):
        sites = [
            (path, call.lineno)
            for path, tree in _trees()
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "attr", getattr(call.func, "id", None)) == "map_tasks"
        ]
        assert [path for path, _ in sites] == [Path("sim/parallel.py")]

    def test_budget_is_checked_in_one_place(self):
        ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        checks = [
            path
            for path, tree in _trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(isinstance(op, ordering) for op in node.ops)
            and "budget_s" in _names(node)
        ]
        assert checks == [Path("sim/parallel.py")]

    @pytest.mark.parametrize(
        "relpath, name", [("fuzz/runner.py", "run_fuzz"), ("chaos/campaign.py", "run")]
    )
    def test_campaigns_hold_no_loop_of_their_own(self, relpath, name):
        body = _function(relpath, name)
        assert not any(isinstance(n, ast.While) for n in ast.walk(body))
        assert "map_tasks" not in _names(body)
        assert "run_campaign" in _names(body)
