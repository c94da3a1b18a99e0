"""Benchmark-suite helpers.

The paper's tables and figures are regenerated, and their checks
asserted, by ``repro run all``; this suite holds the microbenchmarks
and the engine/lint/tracing comparisons.  ``once`` times a macro
workload exactly once.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def once(benchmark):
    """Run a macro experiment exactly once under the benchmark clock."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write one ``BENCH_<module>.json`` per benchmarked module.

    Groups the session's pytest-benchmark results by source module
    (``bench_micro.py`` -> ``BENCH_micro.json``) and records each test's
    timing stats plus its ``extra_info`` through
    :func:`benchmarks.benchlib.write_bench_json` — the same artifact
    shape the script-style benchmarks write directly.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    from pathlib import Path

    from benchmarks.benchlib import write_bench_json

    by_module: dict = {}
    for bench in bench_session.benchmarks:
        module = bench.fullname.split("::")[0]
        name = Path(module).stem.removeprefix("bench_")
        by_module.setdefault(name, []).append(bench)
    for name, benches in sorted(by_module.items()):
        entries = []
        total_s = 0.0
        rounds = 0
        for bench in benches:
            stats = bench.stats
            total_s += stats.total
            rounds += stats.rounds
            entries.append(
                {
                    "test": bench.name,
                    "mean_s": stats.mean,
                    "min_s": stats.min,
                    "rounds": stats.rounds,
                    "extra": dict(bench.extra_info or {}),
                }
            )
        path = write_bench_json(
            name,
            params={"tests": [e["test"] for e in entries]},
            wall_s=total_s,
            throughput=(rounds / total_s) if total_s else None,
            extra={"benchmarks": entries},
        )
        print(f"\nbenchmark record written to {path}")
