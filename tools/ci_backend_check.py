"""CI guard for the vector simulation backend's cycle-exactness claim.

Two gates, any failure exits non-zero:

* **catalog parity** — eight catalog designs (deterministic, partially
  and fully adaptive, torus, 3D) simulate on both backends under
  uniform traffic; every ``SimStats.to_dict()`` must be bit-identical,
  deadlock declaration cycle included;
* **corpus parity** — every committed fuzz witness under
  ``tests/fuzz/corpus`` (designs that *deadlock* or are otherwise
  adversarial) runs on both backends with the same adversarial traffic;
  again identical stats — this is the gate that keeps the result cache's
  backend-agnostic keys (:func:`repro.sim.parallel.cache_key`) honest.

Run from the repository root:
    PYTHONPATH=src python tools/ci_backend_check.py
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.errors import EbdaError, RoutingError, SimulationError
from repro.routing.table import TurnTableRouting
from repro.sim import (
    NetworkSimulator,
    TrafficConfig,
    TrafficGenerator,
    VectorSimulator,
)

COMMITTED_CORPUS = Path("tests/fuzz/corpus")

#: (design name, mesh spec, injection rate) — deterministic through
#: fully adaptive, 2D/3D, plus the torus-relevant channel structures.
CATALOG_POINTS = (
    ("xy", "8x8", 0.10),
    ("west-first", "8x8", 0.08),
    ("north-last", "6x6", 0.08),
    ("negative-first", "6x6", 0.08),
    ("odd-even", "6x6", 0.08),
    ("dyxy", "8x8", 0.06),
    ("fig9b", "3x3x3", 0.05),
    ("west-first-vcs", "6x6", 0.08),
)
CYCLES = 600
SEED = 3


def _run_both(
    topology: Any,
    routing: Any,
    rule: Any,
    *,
    cycles: int,
    rate: float,
    seed: int,
    watchdog: int = 500,
    buffer_depth: int = 4,
    drain: bool = True,
) -> list[dict[str, Any] | str]:
    """(reference stats dict | exception name, vector ditto)."""
    out: list[dict[str, Any] | str] = []
    for cls in (NetworkSimulator, VectorSimulator):
        sim = cls(
            topology, routing, rule,
            buffer_depth=buffer_depth, watchdog=watchdog, seed=seed,
        )
        traffic = TrafficGenerator(
            topology,
            TrafficConfig(injection_rate=rate, packet_length=4, seed=seed),
        )
        try:
            out.append(sim.run(cycles, traffic, drain=drain).to_dict())
        except (RoutingError, SimulationError) as exc:
            out.append(type(exc).__name__)
    return out


def check_catalog() -> int:
    from repro.cli import parse_mesh
    from repro.sim.specs import resolve_routing_factory
    from repro.topology.classes import rule_for_design

    failures = 0
    for name, mesh_spec, rate in CATALOG_POINTS:
        topology = parse_mesh(mesh_spec)
        routing = resolve_routing_factory(name)(topology)
        rule = rule_for_design(name)
        started = time.perf_counter()
        ref, vec = _run_both(
            topology, routing, rule, cycles=CYCLES, rate=rate, seed=SEED
        )
        elapsed = time.perf_counter() - started
        ok = ref == vec
        print(f"catalog {name:16s} {mesh_spec:6s} rate={rate:.2f}"
              f" [{'ok' if ok else 'DIVERGED'}] ({elapsed:.1f}s)")
        if not ok:
            failures += 1
            _diff(ref, vec)
    return failures


def check_corpus() -> int:
    from repro.fuzz import replay_corpus  # noqa: F401 — ensures corpus importable
    from repro.fuzz.corpus import load_entry

    entries = sorted(COMMITTED_CORPUS.glob("*.json"))
    if len(entries) < 5:
        print(f"FAIL: expected >= 5 corpus entries, found {len(entries)}")
        return 1
    failures = 0
    for path in entries:
        entry = load_entry(path)
        design = entry.design
        seq, turnset = design.compile()
        topology = design.topology()
        rule = design.class_rule()
        try:
            routing = TurnTableRouting(
                topology, seq, rule, turnset=turnset, validate=False
            )
        except EbdaError as exc:
            print(f"corpus {entry.id} [skip: unroutable build] {exc}")
            continue
        ref, vec = _run_both(
            topology, routing, rule,
            cycles=400, rate=0.3, seed=0, watchdog=150, buffer_depth=2,
            drain=False,
        )
        ok = ref == vec
        verdict = "ok" if ok else "DIVERGED"
        deadlocked = isinstance(ref, dict) and ref.get("deadlocked")
        print(f"corpus {entry.id} [{verdict}]"
              f" deadlock={bool(deadlocked)}: {design.describe()}")
        if not ok:
            failures += 1
            _diff(ref, vec)
    return failures


def _diff(ref: dict[str, Any] | str, vec: dict[str, Any] | str) -> None:
    if isinstance(ref, dict) and isinstance(vec, dict):
        for key in sorted(ref):
            if ref[key] != vec.get(key):
                print(f"  {key}: reference={ref[key]!r} vector={vec.get(key)!r}")
    else:
        print(f"  reference={ref!r} vector={vec!r}")


def main() -> int:
    failures = check_catalog()
    failures += check_corpus()
    if failures:
        print(f"\n{failures} backend parity check(s) FAILED")
        return 1
    print("\nbackend parity: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
