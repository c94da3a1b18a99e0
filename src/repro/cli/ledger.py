"""Ledger verbs: ``runs`` and ``top``."""

from __future__ import annotations

import argparse
import sys

from repro.cli import verb


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs import RunLedger

    ledger = RunLedger(args.ledger or None)
    records = ledger.records()

    if args.action == "list":
        if not records:
            print(f"(no runs recorded under {ledger.path})")
            return 0
        print(f"{'RUN-ID':16s} {'KIND':9s} {'BACKEND':9s} {'SEED':>5s}"
              f" {'OUTCOME':12s} {'WALL':>8s}  SPEC")
        for r in records:
            print(
                f"{r.run_id:16s} {r.kind:9s} {r.backend:9s} {r.seed:5d}"
                f" {r.outcome:12s} {r.wall_s:7.2f}s  {r.spec}"
            )
        return 0

    if args.action == "show":
        import json

        matches = ledger.find(args.run_id)
        if not matches:
            raise SystemExit(
                f"no run matches id prefix {args.run_id!r} in {ledger.path}"
            )
        for r in matches:
            print(json.dumps(r.to_dict(), indent=2, sort_keys=True))
        return 0

    # diff: identity groups whose outcome digest changed across records.
    rows = ledger.drift()
    if not rows:
        print(f"no drift across {len(records)} run(s): every repeated"
              " identity reproduced the same outcome digest")
        return 0
    for row in rows:
        print(
            f"DRIFT {row['kind']} spec={row['spec']}"
            f" backend={row['backend']} seed={row['seed']}:"
        )
        for v in row["variants"]:
            versions = ",".join(f"{k}={v2}" for k, v2 in sorted(v["versions"].items()))
            print(
                f"  {v['run_id']}  digest={v['digest']}"
                f" outcome={v['outcome']}  [{versions}]"
            )
    print(f"{len(rows)} drifting identit(y/ies)", file=sys.stderr)
    return 1


@verb("runs", "query the run ledger (provenance and drift)", cmd_runs)
def RUNS(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action", choices=("list", "show", "diff"),
        help="list all runs, show one by id prefix, or report outcome drift",
    )
    parser.add_argument(
        "run_id", nargs="?", default="",
        help="run-id prefix (for `runs show`)",
    )
    parser.add_argument(
        "--ledger", default="", metavar="DIR",
        help="ledger directory (default $REPRO_EBDA_LEDGER_DIR or"
        " <cache-dir>/ledger)",
    )


def cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs import render_top

    directory = args.dir or None
    if not args.watch:
        print(render_top(directory=directory))
        return 0
    try:
        while True:
            print("\033[2J\033[H", end="")
            print(render_top(directory=directory))
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0


@verb("top", "live progress of running campaigns (heartbeat files)", cmd_top)
def TOP(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dir", default="", metavar="DIR",
        help="heartbeat directory (default $REPRO_EBDA_HEARTBEAT_DIR or"
        " <cache-dir>/heartbeats)",
    )
    parser.add_argument(
        "--watch", type=float, default=0.0, metavar="SECONDS",
        help="redraw every SECONDS until interrupted (default: one shot)",
    )
