#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``.  Passes over those inputs
run back to back (a closed loop, one process, ``jobs=1``) until
``--seconds`` have passed.  With ``--trace 0`` every pass is untraced
and the end-to-end metrics are printed; with ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics are printed, the
tracing overhead being the traced passes' wall time over the untraced
ones'.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run
goes to ``BENCH_perfbench-<workload>.json`` at the repository root,
through ``benchmarks/benchlib.py``.

Every cache the program writes lives in a temporary directory under
``.perfbench-work/`` in the repository, removed when the run ends.  See
``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_geomean_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.  Times and counts are
#: per pass; a layer a workload does not exercise reads 0.
LAYERS = {
    "core.extraction.s": "s",
    "topology.wires.s": "s",
    "topology.wires.count": "count",
    "cdg.graph.build_s": "s",
    "cdg.graph.edges": "count",
    "cdg.verify.search_acyclic_s": "s",
    "cdg.verify.search_cyclic_s": "s",
    "core.arbitrary.relation_s": "s",
    "core.arbitrary.peel_s": "s",
    "analyze.engine.run_s": "s",
    "analyze.symbolic.certify_s": "s",
    "analyze.certcheck.check_s": "s",
    "routing.build_s": "s",
    "routing.warmup_s": "s",
    "sim.traffic.s": "s",
    "sim.vector.run_s": "s",
    "sim.cycles": "count",
    "sim.flit_moves": "count",
    "sim.parallel.cache_read_s": "s",
    "sim.parallel.cache_write_s": "s",
    "sim.parallel.cache_hit_ratio": "ratio",
    "fuzz.generator.s": "s",
    "fuzz.oracle.theorem_s": "s",
    "fuzz.oracle.static_s": "s",
    "fuzz.oracle.cdg_s": "s",
    "fuzz.oracle.arbitrary_s": "s",
    "fuzz.oracle.sim_residual_s": "s",
    "sim.faults.schedule_s": "s",
    "chaos.workloads.materialize_s": "s",
    "sim.runner.run_point_s": "s",
    "chaos.outcome.delivered": "count",
    "chaos.outcome.degraded": "count",
    "chaos.outcome.deadlock": "count",
    "chaos.outcome.unroutable": "count",
    "obs.trace.overhead_ratio": "ratio",
    "obs.trace.accounted_ratio": "ratio",
    "verify.designs_per_s": "designs/s",
    "lint.designs_per_s": "designs/s",
    "exists.graphs_per_s": "graphs/s",
    "certify.certs_per_s": "certificates/s",
    "sweep.points_per_s": "points/s",
    "sim.flit_moves_per_s": "moves/s",
    "sweep.cached_points_per_s": "points/s",
    "fuzz.trials_per_s": "trials/s",
    "chaos.trials_per_s": "trials/s",
}

#: Spans whose self time belongs to a named layer.  ``fuzz.oracle.run``
#: is the four static oracles plus the simulation residual;
#: ``sim.vector.run_cold`` is memo warm-up plus the warm run.  Whatever
#: else a traced pass spends (benchmark bookkeeping, sweep-engine and
#: chaos-record glue) is the stated residual.
ACCOUNTED = {name for name, unit in LAYERS.items() if unit == "s"} | {
    "fuzz.oracle.run",
    "sim.vector.run_cold",
}

WORKLOADS = ("verify-catalog", "sweep-mesh", "campaign")
SETUP_REPEATS = 3
MIN_PASSES = 2

#: Nominal seconds of the reference loop: its time on an idle reference
#: container (two vCPUs, Python 3.11).
REFERENCE_S = 0.02


def reference_seconds() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine is now.

    The reference container is shared; its speed drifts by up to a third
    over minutes, the same for every kind of work in this process.  Each
    time the benchmark reports is wall time scaled by ``REFERENCE_S``
    over this loop's time measured right before and after, so it reads
    as on the idle machine.  The loop calls nothing in the program, so a
    change to the program cannot move it.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(100_000):
            key = i & 1023
            table[key] = table.get(key, 0) + i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Reference seconds per wall second, from the loop's time before and after."""
    return 2 * REFERENCE_S / (before + after)


def import_program() -> None:
    """Put the checkout's ``src`` and root on the path; disarm the run
    ledger and heartbeats."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: the program's source tree src/repro is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for var in ("REPRO_EBDA_LEDGER_DIR", "REPRO_EBDA_HEARTBEAT_DIR"):
        os.environ.pop(var, None)


def make_workload(name: str, seed: int, workdir: Path, size: "dict | None" = None):
    """The workload at its benchmark size, or at ``size`` (smoke tests)."""
    import workloads

    size = size or {}
    if name == "verify-catalog":
        return workloads.VerifyCatalog(seed, **size)
    if name == "sweep-mesh":
        return workloads.SweepMesh(seed, workdir, **size)
    return workloads.Campaign(seed, **size)


def measure_setup(name: str, seed: int) -> float:
    """Median time of a fresh interpreter importing the program and
    building the workload's inputs, in reference seconds."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        times.append(seconds * scale(before, reference_seconds()))
    return statistics.median(times)


def typical_ops(passes: list) -> list:
    """Each operation of the pass with its median time over ``passes``.

    Every pass repeats the same operations, so position ``i`` is the same
    call in every pass; taking its median filters the seconds-long slow
    spells a shared machine goes through better than a per-pass median.
    """
    from workloads import Op

    return [
        Op(first.kind, statistics.median(r.ops[i].seconds * r.scale for r in passes), True,
           first.work)
        for i, first in enumerate(passes[0].ops)
    ]


def kind_rates(workload, passes: list) -> dict[str, float]:
    """The workload's named throughputs: work done per second of its operations."""
    ops = typical_ops(passes)
    rates = {}
    for kind, (metric, _unit) in workload.KINDS.items():
        if kind == "sim":
            rates[metric] = statistics.median(
                r.reported["sim.flit_moves"] / (r.reported["simulate_s"] * r.scale)
                for r in passes
            )
        else:
            chosen = [op for op in ops if op.kind == kind]
            rates[metric] = sum(op.work for op in chosen) / sum(op.seconds for op in chosen)
    return rates


def layer_metrics(result, probes: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    values = {name: 0.0 for name in LAYERS}
    values.update({k: v for k, v in result.self_times.items() if k in LAYERS})
    values.update({k: v for k, v in result.reported.items() if k in LAYERS})
    values.update({k: v for k, v in probes.items() if k in LAYERS})
    values["topology.wires.count"] = result.span_counts.get("topology.wires.s", 0.0)
    if result.reported.get("lookups"):
        values["sim.parallel.cache_hit_ratio"] = (
            result.reported["hits"] / result.reported["lookups"]
        )
    accounted = sum(v for k, v in result.self_times.items() if k in ACCOUNTED)
    accounted += result.reported.get("sim.parallel.cache_read_s", 0.0)
    accounted += result.reported.get("sim.parallel.cache_write_s", 0.0)
    values["obs.trace.accounted_ratio"] = accounted / result.wall
    for name, unit in LAYERS.items():
        if unit == "s":
            values[name] *= result.scale
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 size: "dict | None" = None) -> dict:
    """Measure one workload; returns its report (metrics, counts, digest)."""
    from spans import Probe
    from workloads import digest, geomean_ms

    workload = make_workload(name, seed, workdir, size)
    untraced, traced = [], []
    attempted = failed = 0
    started = time.perf_counter()
    while len(untraced) + len(traced) < MIN_PASSES or time.perf_counter() - started < seconds:
        tracing = trace and len(untraced) > len(traced)
        before = reference_seconds()
        result = workload.run_pass(Probe(tracing))
        result.scale = scale(before, reference_seconds())
        attempted += len(result.ops)
        failed += sum(not op.ok for op in result.ops)
        if tracing:
            probes = workload.layer_probes(result)
            attempted += probes.pop("probe.checks", 0)
            failed += probes.pop("probe.failed", 0)
            traced.append((result, probes))
        else:
            untraced.append(result)
    measured = time.perf_counter() - started

    named = kind_rates(workload, untraced)
    if trace:
        per_pass = [layer_metrics(result, probes) for result, probes in traced]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in LAYERS}
        metrics.update(named)
        metrics["obs.trace.overhead_ratio"] = (
            statistics.median(r.wall * r.scale for r, _ in traced)
            / statistics.median(r.wall * r.scale for r in untraced)
            - 1.0
        )
    else:
        ops = typical_ops(untraced)
        metrics = {
            "ops_per_s": len(ops) / sum(op.seconds for op in ops),
            "op_geomean_ms": geomean_ms(ops),
            "setup_s": measure_setup(name, seed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(untraced) + len(traced),
        "traced_passes": len(traced),
        "measured_s": measured,
        "attempted": attempted,
        "failed": failed,
        "named": named,
        "metrics": metrics,
        "outcome_digest": digest(workload.first_outcomes),
    }


def result_line(reports: list[dict]) -> dict:
    """The JSON object the last output line carries."""
    failed = sum(r["failed"] for r in reports)
    metrics = {}
    for report in reports:
        units = LAYERS if report["trace"] else END_TO_END
        prefix = f"{report['workload']}/" if len(reports) > 1 else ""
        for name, value in report["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }


def host_versions() -> dict:
    """Library versions and CPU count: cycle-search time follows networkx."""
    import networkx
    import numpy

    return {
        "networkx": networkx.__version__,
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}: {report['passes']} passes"
          f" ({report['traced_passes']} traced) in {report['measured_s']:.1f} s")
    named_units = dict(LAYERS)
    for metric, value in report["named"].items():
        print(f"  {metric:32s} {value:14.4f} {named_units[metric]}")
    rate = report["failed"] / report["attempted"]
    print(f"  {'error_rate':32s} {rate:14.4f} failed/attempted"
          f" ({report['failed']}/{report['attempted']})")
    units = LAYERS if report["trace"] else END_TO_END
    for metric, value in report["metrics"].items():
        print(f"  {metric:32s} {value:14.6g} {units[metric]}")
    print(f"  outcome digest {report['outcome_digest']}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench-work"))
    os.environ["REPRO_EBDA_CACHE_DIR"] = str(workdir / "default-cache")
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed, workdir)
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = []
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
            print_report(report)
            write_record(report)
            reports.append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result_line(reports)))
    return 0


def write_record(report: dict) -> None:
    from benchmarks.benchlib import write_bench_json

    write_bench_json(
        f"perfbench-{report['workload']}",
        params={"seed": report["seed"], "trace": report["trace"]},
        wall_s=report["measured_s"],
        throughput=report["metrics"].get("ops_per_s"),
        extra={"perfbench": report, "host": host_versions()},
        directory=ROOT,
    )


if __name__ == "__main__":
    raise SystemExit(main())
