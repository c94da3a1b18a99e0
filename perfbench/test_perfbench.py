"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402

#: Per workload, a size small enough for a pass to take about a second.
TINY = {
    "verify-catalog": {"radix": 3, "cube": 2, "mutants_per_kind": 1},
    "sweep-mesh": {"radix": 4, "cycles": 60, "rates": (0.02,), "traffic_seeds": 1},
    "campaign": {"families": ("dragonfly", "fattree"), "per_slot": 1, "cycles": 60},
}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_and_every_check_passes(workload, trace, tmp_path):
    report = run.run_workload(workload, 3, 0, bool(trace), tmp_path, TINY[workload])
    line = run.result_line([report])
    expected = run.LAYERS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert json.loads(json.dumps(line)) == line
    kinds = workloads.VerifyCatalog.KINDS if workload == "verify-catalog" else (
        workloads.SweepMesh.KINDS if workload == "sweep-mesh" else workloads.Campaign.KINDS
    )
    assert set(report["named"]) == {metric for metric, _unit in kinds.values()}
    if trace:
        assert 0.5 < line["metrics"]["obs.trace.accounted_ratio"]["value"] <= 1.0
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


_DIGEST = """
import sys
sys.path.insert(0, {here!r})
import run
run.import_program()
report = run.run_workload({workload!r}, 5, 0, False, __import__("pathlib").Path({tmp!r}),
                          {size!r})
print(report["outcome_digest"])
"""


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_gives_identical_outcome_digests(workload, tmp_path):
    """Two processes (so two string-hash seeds) must agree on every outcome."""
    code = _DIGEST.format(here=str(HERE), workload=workload, tmp=str(tmp_path),
                          size=TINY[workload])
    digests = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       check=True, timeout=600).stdout.split()[-1]
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


def test_a_wrong_verdict_counts_as_an_error(tmp_path, monkeypatch):
    """Flip the first verdict of the run: the checks must catch it."""
    real = workloads.verdict_for
    calls = []

    def first_one_wrong(graph):
        verdict = real(graph)
        calls.append(graph)
        if len(calls) == 1:
            return verdict.__class__(not verdict.acyclic, verdict.wires, verdict.dependencies)
        return verdict

    monkeypatch.setattr(workloads, "verdict_for", first_one_wrong)
    report = run.run_workload("verify-catalog", 3, 0, False, tmp_path, TINY["verify-catalog"])
    line = run.result_line([report])
    assert line["failed"] >= 1 and not line["correct"]
