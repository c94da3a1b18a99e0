"""V3 — latency/throughput comparison of the derived algorithms.

The EbDa paper evaluates structure, not performance; this experiment adds
the simulation an ISCA reader would expect: average latency vs injection
rate for XY, west-first, Odd-Even and the EbDa minimal fully adaptive
design on a 2D mesh under uniform and transpose traffic.  The expected
*shape* (not absolute numbers): all algorithms agree at low load; under
transpose, adaptive algorithms sustain higher load than deterministic XY.

Every (pattern, algorithm) curve goes through the
:class:`~repro.sim.parallel.SweepEngine`: named routing/pattern specs
keep the points picklable, so an engine with several workers fans the
whole grid out over worker processes with bit-identical results.
"""

from __future__ import annotations

from repro.analysis import text_table
from repro.experiments.base import Check, ExperimentResult, check_true
from repro.sim import RunConfig, SweepEngine
from repro.topology import Mesh

#: (display name, routing spec) — named specs, so the sweep is picklable.
ALGORITHMS = (
    ("xy", "xy"),
    ("west-first", "west-first"),
    ("odd-even", "odd-even"),
    ("ebda-fully-adaptive", "ebda-fully-adaptive"),
)


def run(
    mesh_size: int = 6,
    *,
    cycles: int = 1500,
    rates: tuple[float, ...] = (0.02, 0.05, 0.08, 0.12),
    engine: SweepEngine | None = None,
) -> ExperimentResult:
    mesh = Mesh(mesh_size, mesh_size)
    if engine is None:
        engine = SweepEngine()
    base = RunConfig(
        cycles=cycles,
        packet_length=4,
        buffer_depth=4,
        selection="congestion",
        watchdog=2000,
        drain=True,
        seed=11,
    )

    # One flat point list across the whole (pattern x algorithm x rate)
    # grid — the engine runs it with whatever parallelism it has.
    from dataclasses import replace

    grid = [
        (pattern_name, algo_name, spec, rate)
        for pattern_name in ("uniform", "transpose")
        for algo_name, spec in ALGORITHMS
        for rate in rates
    ]
    report = engine.run_many(
        (mesh, spec, replace(base, injection_rate=rate, pattern=pattern_name))
        for pattern_name, _algo, spec, rate in grid
    )

    rows = []
    results: dict[str, dict[str, list]] = {}
    for (pattern_name, algo_name, _spec, rate), point in zip(grid, report.points):
        result = point.result
        rows.append(
            [pattern_name, algo_name, f"{rate:.2f}",
             f"{result.avg_latency:.1f}" if result.stats.latencies else "n/a",
             f"{result.throughput:.4f}",
             "DEADLOCK" if result.deadlocked else "ok"]
        )
        results.setdefault(pattern_name, {}).setdefault(algo_name, []).append(result)

    checks: list[Check] = []
    for pattern_name, per_algo in results.items():
        for algo_name, series in per_algo.items():
            checks.append(
                check_true(
                    f"no deadlock: {algo_name} / {pattern_name}",
                    not any(r.deadlocked for r in series),
                )
            )
            checks.append(
                check_true(
                    f"all packets delivered: {algo_name} / {pattern_name}",
                    all(
                        r.stats.packets_delivered == r.stats.packets_injected
                        for r in series
                    ),
                )
            )

    # Shape check: under transpose at the highest rate, the adaptive design
    # should not be slower than deterministic XY (transpose is XY's
    # pathological permutation).
    xy_last = results["transpose"]["xy"][-1]
    ad_last = results["transpose"]["ebda-fully-adaptive"][-1]
    checks.append(
        check_true(
            "adaptive beats or matches XY under transpose at high load",
            ad_last.avg_latency <= xy_last.avg_latency * 1.10,
            note=f"xy={xy_last.avg_latency:.1f}, adaptive={ad_last.avg_latency:.1f} cycles",
        )
    )

    return ExperimentResult(
        exp_id="V3-performance",
        title="Latency vs injection rate: derived algorithms and baselines",
        text=text_table(
            ["pattern", "algorithm", "rate", "avg latency", "throughput", "status"],
            rows,
        ),
        data={"sweep": report.to_dict()},
        checks=tuple(checks),
    )
