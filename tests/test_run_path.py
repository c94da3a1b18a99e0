"""One run path for simulation points.

``repro.sim.runner.run_points`` (and ``run_point``, its one-config case)
is the only code that turns a ``RunConfig`` into a simulator, and
``SweepEngine.run_many`` the only code that looks points up, runs them and
stores them.  Observing a point (metrics, a trace) therefore never changes
its result or its ledger identity, and the CLI gives the same stats as the
library.
"""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.obs import RunLedger, set_ledger
from repro.obs.ledger import outcome_digest
from repro.sim import (
    EbdaDesignFactory,
    FaultEvent,
    FaultSchedule,
    RecoveryPolicy,
    RunConfig,
)
from repro.topology import Mesh
from repro.topology.classes import rule_for_design

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

POINT = ["simulate", "west-first", "--mesh", "4x4", "--cycles", "300",
         "--rate", "0.1", "--seed", "1"]


@pytest.fixture(autouse=True)
def _no_ambient_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_EBDA_LEDGER_DIR", raising=False)
    previous = set_ledger(None)
    yield
    set_ledger(previous)


def _stats_line(capsys) -> str:
    return capsys.readouterr().out.splitlines()[0]


class TestObserversDoNotChangeTheRun:
    def test_metrics_and_trace_print_the_plain_stats(self, tmp_path, capsys):
        assert main(POINT) == 0
        plain = _stats_line(capsys)
        assert "delivered=461" in plain
        assert main(POINT + ["--metrics-out", str(tmp_path / "m.jsonl")]) == 0
        assert _stats_line(capsys) == plain
        assert main(POINT + ["--trace-out", str(tmp_path / "t.jsonl")]) == 0
        assert _stats_line(capsys) == plain
        assert (tmp_path / "m.jsonl").stat().st_size > 0
        assert (tmp_path / "t.jsonl").stat().st_size > 0

    def test_traced_point_is_uncached_and_keeps_its_trace(self, tmp_path):
        config = RunConfig(cycles=150, trace=True)
        for _ in range(2):
            result = repro.run_point(Mesh(4, 4), "xy", config, cache=tmp_path)
            assert result.trace is not None and len(result.trace.events) > 0
        assert not list(tmp_path.glob("*.json"))


class TestFaultedSimulate:
    ARGS = ["simulate", "negative-first", "--mesh", "4x4", "--cycles", "300",
            "--rate", "0.1", "--seed", "1", "--fail-link", "1,1-2,1",
            "--drops", "2", "--recover"]

    def _library_stats(self):
        faults = FaultSchedule(
            [FaultEvent(100, "link", link=((1, 1), (2, 1))),
             FaultEvent(100, "drop"), FaultEvent(110, "drop")],
            seed=1,
        )
        config = RunConfig(
            cycles=300, injection_rate=0.1, watchdog=500, seed=1, faults=faults,
            recovery=RecoveryPolicy(max_retries=8),
            routing_factory=EbdaDesignFactory(
                "negative-first", directions="progressive", fallback="escape"
            ),
        )
        return repro.run_point(
            Mesh(4, 4), EbdaDesignFactory("negative-first"), config,
            rule=rule_for_design("negative-first"),
        ).stats

    def test_matches_library_and_is_served_from_cache(self, tmp_path, capsys):
        stats = self._library_stats()
        ledger = tmp_path / "ledger"
        argv = self.ARGS + ["--cache", "--cache-dir", str(tmp_path / "cache"),
                            "--ledger", str(ledger)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert cold.splitlines()[0] == stats.summary(16)
        assert "rerouted design:" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm.splitlines()[0] == stats.summary(16)
        assert "served from cache" in warm
        first, second = RunLedger(ledger).records()
        assert first.digest == second.digest == outcome_digest(stats.to_dict())


class TestRerouteProvesAcyclicityNotConnectivity:
    """West-first cannot turn onto X- after a Y move: with (1,1)-(2,1)
    down, (3,1) -> (0,1) has no legal path, so the run stops; the same
    fault leaves negative-first routable."""

    FAULT = ["--fail-link", "1,1-2,1", "--drops", "2", "--recover"]

    def test_west_first_is_unroutable_after_the_fault(self):
        with pytest.raises(SystemExit) as info:
            main(POINT + self.FAULT)
        assert "cannot reach its destination on the degraded network" in str(
            info.value.code
        )

    def test_negative_first_reroutes(self, capsys):
        argv = ["simulate", "negative-first", *POINT[2:], *self.FAULT]
        assert main(argv) == 0
        assert "rerouted design: ACYCLIC" in capsys.readouterr().out


def _calls(name: str):
    """``(path, call)`` for every call of ``name`` (bare or attribute) in src/repro."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                yield path.relative_to(SRC), node


class TestStructure:
    def test_cli_builds_no_simulator(self):
        built = [
            f"{path}:{call.lineno}"
            for name in ("NetworkSimulator", "VectorSimulator")
            for path, call in _calls(name)
            if path.parts[0] == "cli"
        ]
        assert built == []

    def test_backend_check_has_one_call_site(self):
        assert [path for path, _ in _calls("check_run_config")] == [Path("sim/parallel.py")]

    def test_run_point_kind_recorded_at_one_site(self):
        sites = [
            path
            for name in ("record_run", "record", "_record")
            for path, call in _calls(name)
            if any(
                isinstance(arg, ast.Constant) and arg.value == "run_point"
                for arg in [*call.args, *(k.value for k in call.keywords)]
            )
        ]
        assert sites == [Path("sim/parallel.py")]

    def test_specs_build_routings_only_through_spec_network(self):
        # No code under sim/ calls what resolve_routing_factory returns,
        # and run_point is the one caller of spec_network, so no point
        # path can build a spec's routing outside the shared network.
        def resolves(node):
            return isinstance(node, ast.Call) and "resolve_routing_factory" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            )

        built, shared = [], []
        for path in sorted((SRC / "sim").rglob("*.py")):
            tree = ast.parse(path.read_text())
            factories = {
                target.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and resolves(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if resolves(node.func) or getattr(node.func, "id", None) in factories:
                    built.append(path.relative_to(SRC))
                if getattr(node.func, "id", None) == "spec_network":
                    shared.append(path.relative_to(SRC))
        assert built == []
        assert shared == [Path("sim/runner.py")]

    def test_a_spec_is_built_once_per_network(self, monkeypatch):
        from repro.sim import SweepEngine, run_point
        from repro.sim.specs import NAMED_ROUTING_FACTORIES

        built = []

        def counting(topology):
            built.append(topology)
            return NAMED_ROUTING_FACTORIES["negative-first"](topology)

        monkeypatch.setitem(NAMED_ROUTING_FACTORIES, "run-path-counting", counting)
        config = RunConfig(cycles=100, injection_rate=0.05, seed=2)
        for backend in ("reference", "vector"):
            run_point(Mesh(4, 4), "run-path-counting", replace(config, backend=backend))
        SweepEngine(jobs=1).sweep(Mesh(4, 4), "run-path-counting", (0.02, 0.04), config)
        repro.run_point(Mesh(4, 4), "run-path-counting", config)
        assert len(built) == 1

    def test_a_vector_sweep_on_one_spec_builds_one_kernel(self, monkeypatch):
        from repro.routing import xy_routing
        from repro.sim import SweepEngine, VectorSimulator

        built = []
        init = VectorSimulator.__init__

        def counting(sim, *args, **kwargs):
            built.append(sim._replicas)
            init(sim, *args, **kwargs)

        monkeypatch.setattr(VectorSimulator, "__init__", counting)
        config = RunConfig(cycles=100, seed=2, backend="vector")
        rates = (0.02, 0.04, 0.06, 0.08)
        SweepEngine(jobs=1).sweep(Mesh(4, 4), "negative-first", rates, config)
        assert built == [len(rates)]
        # A tokenless factory builds a routing per point: nothing to share.
        built.clear()
        SweepEngine(jobs=1).sweep(Mesh(4, 4), lambda t: xy_routing(t), rates, config)
        assert built == [1] * len(rates)


def _defs(node, prefix=""):
    """``(qualified name, def)`` for every function defined under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _defs(child, f"{name}.")


class TestOneDescriptionOfARun:
    """``RunConfig`` says what a point simulates and ``SweepEngine(jobs,
    cache)`` how points run; no other parameter says either."""

    def test_facade_keywords_do_not_copy_config_fields_or_an_engine(self):
        import inspect
        from dataclasses import fields

        config_fields = {f.name for f in fields(RunConfig)}
        for fn in (repro.run_point, repro.sweep):
            params = set(inspect.signature(fn).parameters)
            assert params.isdisjoint(config_fields), fn.__name__
            assert "engine" not in params, fn.__name__

    def test_one_sweep_function(self):
        import repro.sim

        assert not hasattr(repro.sim, "sweep_rates")
        assert "sweep_rates" not in repro.sim.__all__

    def test_worker_count_is_an_engine_parameter(self):
        # ``_chunks`` is private: it splits misses by the engine's own jobs.
        knobs = []
        for path in sorted(SRC.rglob("*.py")):
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            for name, node in _defs(ast.parse(path.read_text())):
                public = all(
                    not part.startswith("_") or part.endswith("__")
                    for part in name.split(".")
                )
                args = node.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                if public and "jobs" in params:
                    knobs.append(f"{module}.{name}")
        assert knobs == ["api.sweep", "sim.parallel.SweepEngine.__init__"]
