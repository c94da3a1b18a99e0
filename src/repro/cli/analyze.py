"""Static-analysis verbs: ``lint`` and ``certify``."""

from __future__ import annotations

import argparse
import time
from dataclasses import replace

from repro.cli import parse_mesh, record, resolve_design, verb
from repro.core import catalog
from repro.store import atomic_write
from repro.topology import NAMED_RULES, resolve_rule


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analyze import (
        RULES,
        Analyzer,
        Severity,
        apply_baseline,
        default_lint_unit,
        load_baseline,
        write_baseline,
    )
    from repro.analyze.reporters import render_json, render_sarif, render_text
    from repro.topology import Torus

    if args.list_rules:
        for rid, info in sorted(RULES.items()):
            flags = []
            if info.requires_topology:
                flags.append("topology")
            if not info.default_enabled:
                flags.append("opt-in")
            extra = f" [{', '.join(flags)}]" if flags else ""
            print(f"{rid} {info.severity.value:7s} {info.title}"
                  f" ({info.citation}){extra}")
        return 0

    names = list(args.designs)
    if args.all:
        names.extend(n for n in sorted(catalog.NAMED_DESIGNS) if n not in names)
    if not names:
        raise SystemExit("nothing to lint: name designs or pass --all")

    select = tuple(args.select.split(",")) if args.select else None
    ignore = tuple(args.ignore.split(",")) if args.ignore else ()
    analyzer = Analyzer(select=select, ignore=ignore)

    rule = resolve_rule(args.rule) if args.rule else None

    def flagged_topology():
        if args.no_topology:
            return None
        if args.torus:
            try:
                return Torus(*(int(k) for k in args.torus.lower().split("x")))
            except Exception as exc:  # noqa: BLE001 - CLI boundary
                raise SystemExit(f"bad torus spec {args.torus!r}: {exc}")
        return parse_mesh(args.mesh)

    reports = []
    for name in names:
        # Unvalidated: surfacing theorem violations is the linter's purpose.
        design, suggested = resolve_design(name, validate=False)
        unit, extra_ignore = default_lint_unit(suggested or design.arrow_notation(), design)
        if args.torus or args.mesh or args.no_topology:
            unit, extra_ignore = replace(unit, topology=flagged_topology()), ()
        unit = replace(
            unit,
            rule=rule if rule is not None else unit.rule,
            claims_fully_adaptive=args.full_adaptive,
        )
        design_analyzer = analyzer
        if extra_ignore:
            design_analyzer = Analyzer(select=select, ignore=ignore + extra_ignore)
        reports.append(design_analyzer.run(unit))

    record(
        "lint", ",".join(names), label="designs",
        outcome="findings" if any(r.diagnostics for r in reports) else "ok",
        payload={r.unit_name: sorted(d.rule for d in r.diagnostics) for r in reports},
        wall_s=sum(r.elapsed_s for r in reports),
    )

    if args.write_baseline:
        n = write_baseline(reports, args.write_baseline)
        print(f"baseline with {n} fingerprint(s) written to {args.write_baseline}")
        return 0
    if args.baseline:
        reports = apply_baseline(reports, load_baseline(args.baseline))

    if args.format == "json":
        rendered = render_json(reports)
    elif args.format == "sarif":
        rendered = render_sarif(reports)
    else:
        rendered = render_text(reports, verbose=args.verbose)
    if args.output:
        atomic_write(args.output, rendered + "\n")
        print(f"{args.format} report written to {args.output}")
    else:
        print(rendered)

    if args.fail_on == "never":
        return 0
    threshold = Severity(args.fail_on)
    failing = sum(len(r.at_or_above(threshold)) for r in reports)
    return 1 if failing else 0


@verb(
    "lint", "static lint pass over designs (no CDG build, no simulation)",
    cmd_lint, groups=("obs",),
)
def LINT(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "designs", nargs="*",
        help="catalog names or arrow notation (with --all: the whole catalog)",
    )
    parser.add_argument(
        "--all", action="store_true", help="lint every catalog design"
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (IDs, severities, citations) and exit",
    )
    parser.add_argument(
        "--mesh", default="", metavar="KxK",
        help="lint on this mesh (default: a 4-per-dim mesh per design)",
    )
    parser.add_argument(
        "--torus", default="", metavar="KxK",
        help="lint on this torus instead of a mesh (arms wrap-ring checks)",
    )
    parser.add_argument(
        "--no-topology", action="store_true",
        help="skip topology-aware rules entirely",
    )
    parser.add_argument(
        "--rule", default="", help=f"class rule, one of: {', '.join(NAMED_RULES)}"
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--output", default="", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select", default="", metavar="IDS",
        help="comma-separated rule IDs to run (enables opt-in rules)",
    )
    parser.add_argument(
        "--ignore", default="", metavar="IDS",
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--fail-on", choices=("error", "warning", "note", "never"),
        default="error",
        help="exit nonzero when a diagnostic at/above this severity remains"
        " (default error)",
    )
    parser.add_argument(
        "--baseline", default="", metavar="FILE",
        help="suppress findings whose fingerprints appear in this baseline",
    )
    parser.add_argument(
        "--write-baseline", default="", metavar="FILE",
        help="record current findings as a baseline and exit",
    )
    parser.add_argument(
        "--full-adaptive", action="store_true",
        help="assert the design claims full adaptivity (arms EBDA009)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="show per-design rule lists and timings (text format)",
    )


def cmd_certify(args: argparse.Namespace) -> int:
    import json

    from repro.analyze import (
        SYMBOLIC_FAMILIES,
        certify_all,
        check_certificates,
        differential_gate,
        symbolic_family,
    )
    from repro.analyze.symbolic import describe_domain, describe_region

    names = list(args.families)
    if args.all or not names:
        names = sorted(SYMBOLIC_FAMILIES)
    start = time.perf_counter()
    reports = certify_all(tuple(names))

    failures = 0
    certs = [c for rep in reports for c in rep.certificates]

    check_problems: list[str] = []
    if not args.no_check:
        for result in check_certificates([c.to_dict() for c in certs]):
            if not result.ok:
                failures += 1
                check_problems.append(result.describe())

    gate = None
    if args.gate > 0:
        gate = differential_gate(tuple(names), points=args.gate, seed=args.seed)
        failures += len(gate.disagreements)

    if args.format == "json":
        payload = {
            "families": [rep.to_dict() for rep in reports],
            "certificates": len(certs),
            "checker": None if args.no_check else {
                "checked": len(certs),
                "problems": check_problems,
            },
            "differential": None if gate is None else gate.to_dict(),
            "ok": failures == 0,
        }
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = []
        for rep in reports:
            family = symbolic_family(rep.family)
            design = f"{family.kind}, {describe_domain(family.domain())}"
            if rep.ok:
                verdict = (
                    f"proven clean ({len(rep.applicable_rules)} rules,"
                    f" {len(rep.certificates) - len(rep.applicable_rules)}"
                    " inapplicable)"
                )
            else:
                parts = [
                    f"{c.rule} fires on {describe_region(c.region)}"
                    for c in rep.certificates
                    if c.status == "violation"
                ]
                verdict = "; ".join(parts)
            lines.append(f"{rep.family} ({design}): {verdict}")
        lines.append(
            f"{len(reports)} families, {len(certs)} certificates"
        )
        if not args.no_check:
            lines.append(
                "checker: all certificates independently re-validated"
                if not check_problems
                else "checker REJECTED certificates:"
            )
            lines.extend(f"  {p}" for p in check_problems)
        if gate is not None:
            verdict = (
                "zero disagreements"
                if gate.ok
                else f"{len(gate.disagreements)} DISAGREEMENT(S)"
            )
            lines.append(
                f"differential: {len(gate.checked)} symbolic-vs-concrete"
                f" checks at {gate.points} random points — {verdict}"
            )
            lines.extend(f"  {d.describe()}" for d in gate.disagreements)
        rendered = "\n".join(lines)

    if args.out:
        atomic_write(args.out, rendered + "\n")
        print(f"{args.format} certification report written to {args.out}")
    else:
        print(rendered)

    if args.cert_dir:
        for rep in reports:
            certificates = json.dumps([c.to_dict() for c in rep.certificates])
            # "catalog:xy" -> "catalog_xy.json": CI artifact uploads
            # reject ":" in file names.
            name = rep.family.replace(":", "_")
            atomic_write(f"{args.cert_dir}/{name}.json", certificates + "\n")
        print(f"{len(reports)} certificate files written to {args.cert_dir}")

    record(
        "certify", ",".join(names), label="families",
        outcome="failures" if failures else "ok",
        payload={rep.family: sorted(rep.violation_rules) for rep in reports},
        wall_s=time.perf_counter() - start,
    )
    return 1 if failures else 0


@verb(
    "certify",
    "symbolic verification: prove EBDA rules over all radices"
    " and seal machine-checkable certificates",
    cmd_certify, groups=("obs",),
)
def CERTIFY(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "families", nargs="*",
        help="symbolic family names (default: every registered family)",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="certify every registered family (the default when no"
        " families are named)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--out", default="", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--cert-dir", default="", metavar="DIR",
        help="also write one sealed-certificate JSON file per family here",
    )
    parser.add_argument(
        "--gate", type=int, default=0, metavar="N",
        help="also run the differential gate: cross-check symbolic"
        " verdicts against the concrete linter at N random (n, k) points",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="differential-gate root seed (default 0)",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the independent certificate re-validation pass",
    )
