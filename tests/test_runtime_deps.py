"""The runtime needs numpy and nothing else: networkx is a test-only reference.

Every dependency graph is a successor map run through the stdlib kernels
of :mod:`repro.cdg.cycles`; networkx stays in the test suite as the
independent check on those kernels.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def test_no_module_imports_networkx():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "networkx" for name in names):
                offenders.append(f"{path.relative_to(PACKAGE).as_posix()}:{node.lineno}")
    assert offenders == [], f"networkx is test-only; imported at {offenders}"


#: Runs in a fresh interpreter where ``import networkx`` raises.
BLOCKED_RUN = textwrap.dedent(
    """
    import sys
    sys.modules["networkx"] = None

    from repro.cli import main
    from repro.routing import UnrestrictedAdaptive
    from repro.sim import NetworkSimulator, TrafficConfig, TrafficGenerator, waitfor_cycle
    from repro.topology import Mesh

    graph_file = sys.argv[1]
    codes = {
        "verify": main(["verify", "west-first", "--mesh", "8x8"]),
        "lint": main(["lint", "--all"]),
        "fuzz": main([
            "fuzz", "--runs", "3", "--fast", "--quiet",
            "--families", "mesh,torus,dragonfly,fattree,irregular",
        ]),
        "exists": main(["exists", graph_file]),
    }
    mesh = Mesh(4, 4)
    sim = NetworkSimulator(mesh, UnrestrictedAdaptive(mesh), buffer_depth=2, watchdog=200)
    sim.run(2500, TrafficGenerator(
        mesh, TrafficConfig(injection_rate=0.35, packet_length=8, seed=3)
    ))
    assert sim.stats.deadlocked
    assert waitfor_cycle(sim)
    print("CODES", codes)
    """
)


def test_cli_and_simulator_run_with_networkx_blocked(tmp_path):
    graph_file = tmp_path / "ring.json"
    graph_file.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 0]]}))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN, str(graph_file)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # west-first verifies, the catalog lints clean, the fuzz campaign
    # agrees, and the single-class ring has no deadlock-free routing.
    expected = "CODES {'verify': 0, 'lint': 0, 'fuzz': 0, 'exists': 1}"
    assert expected in proc.stdout
