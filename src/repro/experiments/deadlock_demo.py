"""V2 — simulation evidence: EbDa designs never deadlock; the unrestricted
baseline does.

Stress configuration: small buffers, long packets, high injection, uniform
traffic on a 2D mesh.  The unrestricted fully adaptive baseline (cyclic
CDG) deadlocks; every EbDa-derived algorithm and baseline with an acyclic
CDG completes, in both buffer disciplines (EbDa-relaxed multi-packet
buffers and Duato-atomic buffers).

All six trials are independent simulation points expressed as named
routing specs, so the :class:`~repro.sim.parallel.SweepEngine` can fan
them out over its worker processes and serve repeats from its
result cache — the cold-then-warm cache test
(``tests/experiments/test_experiments.py``) drives it twice for exactly
that reason.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import text_table
from repro.experiments.base import Check, ExperimentResult, check_true
from repro.sim import RunConfig, SweepEngine
from repro.topology import Mesh

#: (display name, routing spec, atomic buffers, expect deadlock).
TRIALS = (
    ("unrestricted-adaptive", "unrestricted-adaptive", False, True),
    ("xy", "xy", False, False),
    ("west-first (native)", "west-first", False, False),
    ("north-last (EbDa)", "ebda:north-last", False, False),
    ("fully-adaptive (EbDa, relaxed buffers)", "ebda-fully-adaptive", False, False),
    # The EbDa-relaxed buffer discipline (multiple packets per buffer) is
    # the paper's point of departure from Duato; both must stay safe.
    ("fully-adaptive (EbDa, atomic buffers)", "ebda-fully-adaptive", True, False),
)


def run(
    mesh_size: int = 4,
    *,
    cycles: int = 3000,
    engine: SweepEngine | None = None,
) -> ExperimentResult:
    mesh = Mesh(mesh_size, mesh_size)
    if engine is None:
        engine = SweepEngine()
    stress = RunConfig(
        cycles=cycles,
        injection_rate=0.30,
        packet_length=8,
        buffer_depth=2,
        watchdog=300,
        drain=True,
        seed=3,
        pattern="uniform",
    )

    report = engine.run_many(
        (mesh, spec, replace(stress, atomic_buffers=atomic))
        for _name, spec, atomic, _expect in TRIALS
    )

    rows = []
    checks: list[Check] = []
    for (name, _spec, _atomic, expect_deadlock), point in zip(TRIALS, report.points):
        result = point.result
        rows.append(
            [name,
             "DEADLOCK" if result.deadlocked else "completed",
             result.stats.packets_delivered,
             result.stats.packets_injected]
        )
        if expect_deadlock:
            checks.append(check_true(f"{name} deadlocks under stress", result.deadlocked))
        else:
            checks.append(
                check_true(
                    f"{name} deadlock-free under stress",
                    not result.deadlocked
                    and result.stats.packets_delivered == result.stats.packets_injected,
                    note=f"{result.stats.packets_delivered}/{result.stats.packets_injected} delivered",
                )
            )

    return ExperimentResult(
        exp_id="V2-deadlock",
        title="Wormhole stress test: who deadlocks",
        text=text_table(["algorithm", "outcome", "delivered", "injected"], rows),
        data={"sweep": report.to_dict()},
        checks=tuple(checks),
    )
