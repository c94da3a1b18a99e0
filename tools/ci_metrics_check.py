"""CI guard for the telemetry layer's JSONL export schema.

Drives two metered simulations and validates everything they export:

* a healthy 4x4 XY run — the JSONL artifact must be strict JSON (no
  ``NaN``/``Infinity`` tokens), lead with a compatible ``meta`` record,
  agree with its own bookkeeping (channel count, lockstep sample
  series), and satisfy the flit-conservation identity against the
  simulator's stats record;
* the crafted 2x2 ring deadlock — the export must carry a ``forensics``
  record naming four witness wires and four blocked packets.

Finally the artifact is rendered through ``repro inspect`` as a smoke
test of the CLI path.  The healthy-run export is left on disk (default
``metrics.jsonl``; first argument overrides) for upload.

Run from the repository root:
    PYTHONPATH=src python tools/ci_metrics_check.py [metrics.jsonl]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from repro.errors import EbdaError
from repro.sim.metrics import load_metrics
from repro.store import read_json

REQUIRED_KEYS = {
    "meta": {"schema", "topology", "n_nodes", "routing", "sample_every",
             "cycles", "samples", "n_channels", "n_routers"},
    "sample": {"cycle", "throughput", "flit_moves", "buffered_flits",
               "injection_depth", "packets_in_flight", "vc_stalls",
               "mean_link_utilization", "max_link_utilization"},
    "channel": {"wire", "channel", "partition", "src", "dst", "flits",
                "utilization"},
    "router": {"node", "avg_buffered", "peak_buffered", "vc_stalls"},
    "stats": {"flit_moves", "flits_delivered", "packets_delivered"},
    "forensics": {"declared_at", "wait_cycle", "witness_channels",
                  "blocked", "buffer_occupancy"},
}


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def validate(path: Path) -> list[dict[str, Any]]:
    """Load one exported JSONL file strictly, then schema-check each record."""
    records = load_metrics(path)
    for index, record in enumerate(records, 1):
        kind = record["record"]
        required = REQUIRED_KEYS.get(kind)
        if required is not None and not required <= set(record):
            fail(f"{path}: record {index}: {kind} record missing keys "
                 f"{sorted(required - set(record))}")
    meta = records[0]
    of = lambda kind: [r for r in records if r["record"] == kind]  # noqa: E731

    channels = of("channel")
    if len(channels) != meta["n_channels"]:
        fail(f"{path}: {len(channels)} channel records, meta says "
             f"{meta['n_channels']}")
    if len(of("router")) != meta["n_routers"]:
        fail(f"{path}: router record count disagrees with meta")
    samples = of("sample")
    if len(samples) != meta["samples"]:
        fail(f"{path}: {len(samples)} sample records, meta says "
             f"{meta['samples']}")
    if samples and [s["cycle"] for s in samples] != sorted(
        {s["cycle"] for s in samples}
    ):
        fail(f"{path}: sample cycles are not strictly increasing")

    stats = of("stats")
    if stats:
        carried = sum(c["flits"] for c in channels)
        in_network = stats[0]["flit_moves"] - stats[0]["flits_delivered"]
        if carried != in_network:
            fail(f"{path}: conservation violated — channels carried "
                 f"{carried} flits, stats imply {in_network}")
    return records


def healthy_export(path: Path) -> None:
    from repro.routing import xy_routing
    from repro.sim import MetricsCollector, NetworkSimulator, TrafficConfig, TrafficGenerator
    from repro.topology import Mesh

    mesh = Mesh(4, 4)
    collector = MetricsCollector(sample_every=50)
    sim = NetworkSimulator(mesh, xy_routing(mesh), metrics=collector)
    traffic = TrafficGenerator(
        mesh, TrafficConfig(injection_rate=0.05, packet_length=4, seed=1)
    )
    stats = sim.run(500, traffic, drain=True)
    if stats.deadlocked:
        fail("healthy metered run deadlocked")
    n = collector.to_jsonl(path, stats=stats)
    print(f"healthy run: {n} records -> {path}")

    records = validate(path)
    if any(r["record"] == "forensics" for r in records):
        fail("healthy run exported a forensics record")
    print(f"healthy run: {len(records)} records validated")


def deadlock_export(path: Path) -> None:
    # The crafted ring deadlock lives in the V8 experiment; reuse it so
    # CI exercises the exact artifact the experiment certifies.
    from repro.experiments import telemetry_demo

    result = telemetry_demo.run()
    if not result.passed:
        for check in result.checks:
            if not check.passed:
                print(f"  failed: {check.name}")
        fail("V8-telemetry experiment checks failed")

    forensics = result.data["forensics"]
    if forensics is None:
        fail("V8-telemetry produced no forensics payload")
    path.write_text(json.dumps(forensics, allow_nan=False) + "\n")

    record = read_json(path)
    missing = REQUIRED_KEYS["forensics"] - set(record)
    if missing:
        fail(f"forensics record missing keys {sorted(missing)}")
    if len(record["witness_channels"]) != 4:
        fail(f"expected 4 witness wire sets, got "
             f"{len(record['witness_channels'])}")
    if {b["pid"] for b in record["blocked"]} != {0, 1, 2, 3}:
        fail("forensics did not report all four blocked worms")
    print(f"deadlock run: forensics validated ({len(record['blocked'])} "
          "blocked packets)")


def inspect_smoke(path: Path) -> None:
    from repro.cli import main as cli_main

    code = cli_main(["inspect", str(path)])
    if code != 0:
        fail(f"repro inspect exited {code}")
    print("inspect: rendered OK")


def main() -> None:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("metrics.jsonl")
    try:
        healthy_export(out_path)
        deadlock_export(out_path.with_suffix(".forensics.json"))
    except EbdaError as exc:  # unreadable or non-strict export
        fail(str(exc))
    inspect_smoke(out_path)
    print("PASS: telemetry export schema holds")


if __name__ == "__main__":
    main()
