"""Campaign verbs: ``fuzz`` and ``chaos``."""

from __future__ import annotations

import argparse
import sys

from repro.cli import engine_from_args, parse_mesh, verb


def _live(args: argparse.Namespace, id: str, kind: str, total: int) -> dict:
    """A campaign's ``progress`` (lines on stderr) and ``heartbeat`` file;
    neither under ``--quiet``."""
    if args.quiet:
        return {}
    from repro.obs import HeartbeatWriter

    return {
        "progress": lambda line: print(line, file=sys.stderr),
        "heartbeat": HeartbeatWriter(id, kind, total),
    }


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        FAMILIES,
        fast_profile,
        replay_corpus,
        run_fuzz,
        self_check,
    )
    from repro.fuzz.oracle import SimProfile

    families = None
    if args.families:
        families = tuple(
            name.strip() for name in args.families.split(",") if name.strip()
        )
        unknown = [name for name in families if name not in FAMILIES]
        if unknown or not families:
            raise SystemExit(
                f"unknown families {unknown!r}; choose from {', '.join(FAMILIES)}"
            )

    profile = fast_profile() if args.fast else SimProfile()
    failures = 0

    if args.instantiations > 0:
        from repro.fuzz import run_instantiations

        report = run_instantiations(args.instantiations, seed=args.seed)
        print(report.summary())
        if not report.ok:
            failures += 1

    if args.self_check:
        ok, message = self_check(profile)
        print(message)
        if not ok:
            failures += 1

    if args.replay:
        replayed = replay_corpus(args.replay, profile=profile)
        if not replayed:
            raise SystemExit(f"no corpus entries under {args.replay!r}")
        for entry, detected, trial in replayed:
            status = "ok" if detected else "MISSED"
            print(
                f"replay {entry.id} [{status}] expect={entry.expect}"
                f" got={trial.classification}: {entry.design.describe()}"
            )
            if not detected:
                failures += 1
        print(f"replayed {len(replayed)} corpus entries")

    if args.runs > 0:
        report = run_fuzz(
            args.runs,
            seed=args.seed,
            budget_s=args.budget_s,
            corpus_dir=args.corpus_dir or None,
            engine=engine_from_args(args),
            profile=profile,
            families=families,
            **_live(args, f"fuzz-{args.seed}", "fuzz", args.runs),
        )
        print(report.summary())
        if args.report:
            path = report.to_jsonl(args.report)
            print(f"trial log written to {path}")
        if not report.ok:
            failures += 1

    return 1 if failures else 0


@verb(
    "fuzz", "differential fuzzing: cross-check theorems, CDG and simulator",
    cmd_fuzz, groups=("engine", "obs"),
)
def FUZZ(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runs", type=int, default=200, metavar="N",
        help="number of differential trials (default 200; 0 skips the campaign)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator root seed (default 0)"
    )
    parser.add_argument(
        "--families", default="", metavar="CSV",
        help="topology families to draw designs from, comma-separated"
        " (mesh,torus,dragonfly,fattree,irregular; default mesh,torus)",
    )
    parser.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; the campaign stops cleanly between batches",
    )
    parser.add_argument(
        "--corpus-dir", default="", metavar="DIR",
        help="persist minimised disagreement witnesses here for replay",
    )
    parser.add_argument(
        "--report", default="", metavar="FILE",
        help="write a JSONL trial log (one line per trial + totals)",
    )
    parser.add_argument(
        "--replay", default="", metavar="DIR",
        help="re-judge every saved witness in DIR before fuzzing",
    )
    parser.add_argument(
        "--self-check", action="store_true",
        help="inject a synthetic disagreement and verify detection + shrinking",
    )
    parser.add_argument(
        "--instantiations", type=int, default=0, metavar="N",
        help="also run the instantiation oracle: cross-check symbolic"
        " certificates against the concrete linter at N random (n, k)"
        " points (default 0: off)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="shorter simulation budgets (smoke runs, property tests)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-batch progress lines and heartbeat files",
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import CampaignConfig, ChaosCampaign, render_survival

    if args.load:
        print(render_survival(args.load))
        return 0

    config = CampaignConfig(
        trials=args.trials,
        seed=args.seed,
        mesh=parse_mesh(args.mesh).shape,
        routing=args.routing,
        workloads=tuple(w for w in args.workloads.split(",") if w),
        policies=tuple(p for p in args.policies.split(",") if p),
        max_faults=args.max_faults,
        cycles=args.cycles,
        buffer_depth=args.buffers,
        watchdog=args.watchdog,
    )

    campaign = ChaosCampaign(
        config,
        engine=engine_from_args(args),
        checkpoint_dir=args.checkpoint_dir or None,
    )
    report = campaign.run(
        budget_s=args.budget_s,
        **_live(args, config.token(), "chaos", config.trials),
    )
    print(report.summary())
    if args.out:
        n = report.to_jsonl(args.out)
        print(f"campaign report: {n} records -> {args.out}")
    print()
    print(report.render())
    if report.interrupted:
        print(
            "(budget expired — rerun the same command with the same"
            " --checkpoint-dir to finish)"
        )
    return 0 if report.ok else 1


@verb(
    "chaos", "Monte-Carlo chaos campaign: faults x policies x workloads",
    cmd_chaos, groups=("engine", "obs"),
)
def CHAOS(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trials", type=int, default=50, metavar="N",
        help="number of Monte-Carlo trials (default 50)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign root seed (default 0)"
    )
    parser.add_argument("--mesh", default="4x4")
    parser.add_argument(
        "--routing", default="negative-first",
        help="routing spec under test (catalog design or native name)",
    )
    parser.add_argument(
        "--workloads", default="all-reduce,shuffle,incast,bursty",
        help="comma-separated named workloads to mix (see docs/CHAOS.md)",
    )
    parser.add_argument(
        "--policies", default="none,retry-2,retry-8",
        help="comma-separated recovery policies to compare",
    )
    parser.add_argument(
        "--max-faults", type=int, default=2, metavar="K",
        help="per-trial link failures drawn uniformly from 0..K (default 2)",
    )
    parser.add_argument("--cycles", type=int, default=300)
    parser.add_argument("--buffers", type=int, default=4)
    parser.add_argument("--watchdog", type=int, default=200)
    parser.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; the campaign stops cleanly between batches",
    )
    parser.add_argument(
        "--checkpoint-dir", default="", metavar="DIR",
        help="persist per-trial records here; rerunning resumes byte-identically",
    )
    parser.add_argument(
        "--out", default="", metavar="FILE",
        help="write the campaign report (meta + trials + survival) as JSONL",
    )
    parser.add_argument(
        "--load", default="", metavar="FILE",
        help="render an existing campaign JSONL and exit (no simulation)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-batch progress lines and heartbeat files",
    )
