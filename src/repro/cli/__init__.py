"""Command-line interface: ``python -m repro <command>``.

Every verb is one :class:`Verb` record in :data:`VERBS`, kept next to its
body in a family module (:mod:`~repro.cli.design`,
:mod:`~repro.cli.simulate`, :mod:`~repro.cli.analyze`,
:mod:`~repro.cli.campaign`, :mod:`~repro.cli.ledger`); the argparse tree
and :func:`main` are derived from that table.  ``repro --help`` and
``repro <verb> --help`` document the verbs and their flags.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core import PartitionSequence, catalog
from repro.errors import EbdaError
from repro.topology import Mesh


Run = Callable[[argparse.Namespace], int]
Configure = Callable[[argparse.ArgumentParser], None]


@dataclass(frozen=True)
class Verb:
    """One CLI verb: its name, help line, body, own flags and shared flag groups.

    ``configure`` adds the verb's own arguments; ``groups`` names the
    shared flag groups (``backend``, ``engine``, ``obs``) added after
    them, in the order listed.
    """

    name: str
    help: str
    run: Run
    configure: Configure = lambda parser: None
    groups: tuple[str, ...] = ()


def verb(
    name: str, help: str, run: Run, *, groups: tuple[str, ...] = ()
) -> Callable[[Configure], Verb]:
    """Decorator: the :class:`Verb` whose ``configure`` is the decorated function."""
    return lambda configure: Verb(name, help, run, configure, groups)


def parse_mesh(spec: str) -> Mesh:
    """``"8x8"`` -> ``Mesh(8, 8)``, a bad spec as a CLI exit."""
    try:
        return Mesh(*(int(k) for k in spec.lower().split("x")))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        raise SystemExit(f"bad mesh spec {spec!r} (use e.g. 8x8 or 4x4x4): {exc}")


def resolve_design(text: str, *, validate: bool = True) -> tuple[PartitionSequence, str]:
    """:func:`repro.core.catalog.resolve_design`, a parse failure as a CLI exit."""
    try:
        return catalog.resolve_design(text, validate=validate)
    except EbdaError as exc:
        raise SystemExit(f"cannot parse design {text!r}: {exc}")


def engine_from_args(args: argparse.Namespace):
    """Build the SweepEngine the --jobs/--cache flags describe."""
    from repro.sim.parallel import SweepEngine

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    return SweepEngine(jobs=args.jobs, cache=(args.cache_dir or True) if args.cache else False)


def record(kind: str, spec: str, *, label: str = "", **fields: object) -> None:
    """Append one CLI-owned run record; a no-op unless a ledger is armed.

    ``fields`` are :func:`repro.obs.ledger.record_run`'s keywords.  A spec
    longer than 80 characters is recorded as ``<label>:<16-hex digest>``.
    """
    from repro.obs.ledger import record_run
    from repro.store import digest

    if len(spec) > 80:
        spec = f"{label}:{digest(spec, 16)}"
    record_run(kind, spec, **fields)


@contextmanager
def _obs_scope(args: argparse.Namespace):
    """Arm the observability runtime the --spans-out/--ledger flags ask for.

    Installs a :class:`~repro.obs.trace.Tracer` (written to JSONL on the
    way out, even when the command fails) and/or the run ledger for the
    duration of one command.  Commands without the flags pass through
    untouched — ``main`` wraps every command in this scope.
    """
    spans_out = getattr(args, "spans_out", "")
    ledger_dir = getattr(args, "ledger", "")
    if not spans_out and not ledger_dir:
        yield
        return
    from repro.obs import Tracer, set_ledger, set_tracer

    tracer = Tracer() if spans_out else None
    prev_tracer = set_tracer(tracer) if tracer is not None else None
    prev_ledger = set_ledger(ledger_dir) if ledger_dir else None
    try:
        yield
    finally:
        if ledger_dir:
            set_ledger(prev_ledger)
        if tracer is not None:
            set_tracer(prev_tracer)
            n = tracer.to_jsonl(spans_out)
            print(f"spans: {n} events -> {spans_out}", file=sys.stderr)


def _backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=("reference", "vector"), default="reference",
        help="simulation engine: reference (full feature set) or vector"
        " (numpy kernel, cycle-exact, much faster; see `repro backends`)",
    )


def _engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation points (default 1: in-process)",
    )
    parser.add_argument(
        "--cache", dest="cache", action="store_true", default=False,
        help="serve repeated points from the on-disk result cache",
    )
    parser.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="disable the result cache (the default)",
    )
    parser.add_argument(
        "--cache-dir", default="", metavar="DIR",
        help="cache directory (default ~/.cache/repro-ebda or $REPRO_EBDA_CACHE_DIR)",
    )


def _obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spans-out", default="", metavar="FILE",
        help="trace the command's pipeline spans and write them as JSONL",
    )
    parser.add_argument(
        "--ledger", default="", metavar="DIR",
        help="append this run to the ledger in DIR (query with `repro runs`;"
        " $REPRO_EBDA_LEDGER_DIR arms it globally)",
    )


FLAG_GROUPS = {"backend": _backend_flags, "engine": _engine_flags, "obs": _obs_flags}

# The family modules build their Verb records from the names above.
from repro.cli import analyze, campaign, design, ledger, simulate  # noqa: E402

VERBS: tuple[Verb, ...] = (
    design.LIST, simulate.RUN, design.VERIFY, design.DESIGN, design.LOGIC,
    simulate.SIMULATE, simulate.SWEEP, simulate.BACKENDS, simulate.INSPECT,
    analyze.LINT, analyze.CERTIFY, design.EXISTS, campaign.CHAOS, campaign.FUZZ,
    ledger.RUNS, ledger.TOP,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EbDa: design and verification of deadlock-free interconnection networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb.name, help=verb.help)
        verb.configure(p)
        for group in verb.groups:
            FLAG_GROUPS[group](p)
        p.set_defaults(func=verb.run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _obs_scope(args):
            return args.func(args)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0
    except EbdaError as exc:  # the one place library errors become an exit
        raise SystemExit(str(exc))
