"""The runtime needs numpy and nothing else: networkx is a test-only reference.

Every dependency graph is a successor map run through the stdlib kernels
of :mod:`repro.cdg.cycles`; networkx stays in the test suite as the
independent check on those kernels.  numpy in turn is the simulator's
alone: the verifier packages sit below :mod:`repro.sim` and never import
it, so the static verbs run on the standard library.
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


#: Packages (and top-level modules) that decide deadlock freedom statically.
VERIFIER_LAYER = (
    "errors", "store", "obs", "core", "topology", "routing", "cdg", "analyze", "analysis",
)
#: What they must never import: the simulator and everything built on it.
ABOVE_VERIFIER = ("sim", "fuzz", "chaos", "experiments", "cli", "api")


def _type_checking_only(tree: ast.AST) -> set[int]:
    """ids of the nodes inside ``if TYPE_CHECKING:`` blocks."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            for stmt in node.body:
                skipped.update(id(inner) for inner in ast.walk(stmt))
    return skipped


def _imported_modules(node: ast.AST) -> list[str]:
    """Dotted names an import statement loads (``from repro import sim`` -> ``repro.sim``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_verifier_layer_never_imports_the_simulator():
    forbidden = tuple(f"repro.{name}." for name in ABOVE_VERIFIER)
    offenders = []
    for layer in VERIFIER_LAYER:
        module = PACKAGE / f"{layer}.py"
        paths = [module] if module.exists() else sorted((PACKAGE / layer).rglob("*.py"))
        assert paths, f"no source for verifier layer {layer!r}"
        for path in paths:
            tree = ast.parse(path.read_text(), str(path))
            skipped = _type_checking_only(tree)
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if any(f"{name}.".startswith(forbidden) for name in _imported_modules(node)):
                    offenders.append(f"{path.relative_to(PACKAGE).as_posix()}:{node.lineno}")
    assert offenders == [], f"verifier modules import the simulator stack at {offenders}"


#: Runs the static verbs in a fresh interpreter where ``import numpy`` raises.
NUMPY_BLOCKED_RUN = textwrap.dedent(
    """
    import sys
    sys.modules["numpy"] = None

    import repro
    from repro.cli import main
    from repro.topology import Mesh

    ring_file = sys.argv[1]
    codes = {
        "verify": main(["verify", "west-first", "--mesh", "8x8"]),
        "verify-rule": main(["verify", "west-first", "--mesh", "8x8", "--rule", "none"]),
        "lint": main(["lint", "--all"]),
        "certify": main(["certify", "--all"]),
        "exists": main(["exists", ring_file]),
        "design": main(["design", "2"]),
        "logic": main(["logic", "west-first"]),
        "api": 0 if repro.verify("west-first", Mesh(4, 4)).acyclic else 1,
    }
    print("CODES", codes)
    simulator = ("repro.sim.network", "repro.sim.vector", "repro.sim.parallel")
    print("LOADED", [name for name in simulator if name in sys.modules])
    """
)


def test_static_verbs_run_without_numpy_or_the_simulator(tmp_path):
    ring_file = tmp_path / "ring.json"
    ring_file.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 0]]}))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED_RUN, str(ring_file)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_EBDA_CACHE_DIR=str(tmp_path)),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # Every verb keeps its exit code: the ring alone has no deadlock-free
    # routing, everything else verifies.
    expected = {
        "verify": 0, "verify-rule": 0, "lint": 0, "certify": 0,
        "exists": 1, "design": 0, "logic": 0, "api": 0,
    }
    assert f"CODES {expected}" in proc.stdout
    assert "LOADED []" in proc.stdout
