"""CI guard for the symbolic verification engine (``repro.analyze.symbolic``).

Four gates, any failure exits non-zero:

* **prover gate** — every registered symbolic family must certify, the
  paper's claimed-safe catalog designs and parametric constructions
  (dimension-order mesh, Algorithm-1 mesh, dateline torus) must be
  proven clean over their whole domain, and every deliberately broken
  family must be proven to violate exactly its target rule;
* **checker gate** — the independent certificate checker
  (``repro.analyze.certcheck``) must re-validate every sealed
  certificate, and must reject a sample of byte-level tampered copies
  (flipped status, edited witness, forged digest);
* **differential gate** — symbolic verdicts must agree with the concrete
  linter at >= 500 random ``(n, k)`` instantiation points across all
  families, with zero disagreements;
* **artifact gate** — the sealed certificates are written one JSON file
  per family to the directory given on the command line, for CI artifact
  upload; every file must round-trip through the checker after reading
  back from disk.

Run from the repository root:
    PYTHONPATH=src python tools/ci_certify_check.py [certificates-dir]
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from repro.analyze import certify_all, check_certificate, check_certificates
from repro.analyze.symbolic import SYMBOLIC_FAMILIES, differential_gate, symbolic_family
from repro.analyze.symbolic.certificate import describe_domain

#: Families that must be proven clean over their entire (n, k) domain.
MUST_BE_CLEAN = (
    "dim-order-mesh",
    "alg1-mesh",
    "dateline-torus",
    "catalog:xy",
    "catalog:dyxy",
    "catalog:fig7c",
    "catalog:fig9b",
    "catalog:fig9c",
    "catalog:dragonfly-minimal",
    "catalog:dragonfly-valiant",
    "catalog:fattree-updown",
)

#: Broken families and the one rule each must be proven to violate.
MUST_VIOLATE = {
    "mesh-missing-negative": "EBDA008",
    "mesh-descending-uturn": "EBDA002",
    "mesh-backward-turn": "EBDA003",
    "mesh-foreign-turn": "EBDA004",
    "torus-no-dateline": "EBDA005",
    "alg1-claimed": "EBDA009",
}

#: Differential-gate floor: the acceptance criterion from the issue.
MIN_POINTS = 500

#: Tampered copies to feed the checker per campaign.
TAMPER_SAMPLES = 60


def check_prover() -> tuple[int, list]:
    failures = 0
    start = time.perf_counter()
    reports = list(certify_all())
    elapsed = time.perf_counter() - start
    certs = sum(len(r.certificates) for r in reports)
    print(f"certify: {len(reports)} families, {certs} certificates"
          f" in {elapsed:.1f}s")
    by_name = {r.family: r for r in reports}
    missing = sorted(set(SYMBOLIC_FAMILIES) - set(by_name))
    if missing:
        failures += 1
        print(f"FAIL: families did not certify: {', '.join(missing)}")
    for name in MUST_BE_CLEAN:
        rep = by_name.get(name)
        if rep is None:
            failures += 1
            print(f"FAIL: expected clean family {name} is not registered")
        elif not rep.ok:
            failures += 1
            print(f"FAIL: {name} should be proven clean, violates"
                  f" {', '.join(rep.violation_rules)}")
        else:
            domain = describe_domain(symbolic_family(name).domain())
            print(f"certify {name} [ok] clean over {domain}")
    for name, rule in MUST_VIOLATE.items():
        rep = by_name.get(name)
        if rep is None:
            failures += 1
            print(f"FAIL: expected broken family {name} is not registered")
        elif rep.violation_rules != (rule,):
            failures += 1
            print(f"FAIL: {name} should violate exactly {rule}, got"
                  f" {rep.violation_rules or 'no violations'}")
        else:
            print(f"certify {name} [ok] proven to violate {rule}")
    return failures, reports


def check_checker(reports: list) -> int:
    failures = 0
    dicts = [c.to_dict() for rep in reports for c in rep.certificates]
    results = check_certificates(dicts)
    bad = [r for r in results if not r.ok]
    if bad:
        failures += len(bad)
        for r in bad:
            print(f"FAIL: checker rejected a prover certificate: {r.describe()}")
    else:
        print(f"certcheck: all {len(results)} certificates independently"
              " re-validated")

    # Tamper detection: any mutated byte of the canonical JSON must be
    # rejected (either the digest breaks or the JSON stops parsing).
    rng = random.Random(0)
    texts = [json.dumps(d, sort_keys=True, separators=(",", ":"))
             for d in dicts]
    undetected = 0
    for _ in range(TAMPER_SAMPLES):
        text = rng.choice(texts)
        pos = rng.randrange(len(text))
        old = text[pos]
        new = chr((ord(old) - 32 + rng.randrange(1, 95)) % 95 + 32)
        tampered = text[:pos] + new + text[pos:][1:]
        try:
            parsed = json.loads(tampered)
        except ValueError:
            continue
        if parsed == json.loads(text):  # e.g. 1.0 -> 1.00: value-equal
            continue
        if check_certificate(parsed).ok:
            undetected += 1
            print(f"FAIL: tampered byte at offset {pos} ({old!r} -> {new!r})"
                  " passed the checker")
    if undetected:
        failures += 1
    else:
        print(f"certcheck: {TAMPER_SAMPLES}/{TAMPER_SAMPLES} tampered"
              " copies rejected")
    return failures


def check_differential() -> int:
    start = time.perf_counter()
    result = differential_gate(points=MIN_POINTS, seed=0)
    elapsed = time.perf_counter() - start
    if len(result.checked) < MIN_POINTS:
        print(f"FAIL: differential gate ran {len(result.checked)} checks,"
              f" expected >= {MIN_POINTS}")
        return 1
    if not result.ok:
        print(f"FAIL: {len(result.disagreements)} symbolic-vs-concrete"
              " disagreement(s):")
        for d in result.disagreements:
            print(f"  {d.describe()}")
        return 1
    print(f"differential: {len(result.checked)} instantiation checks over"
          f" {len(result.families)} families in {elapsed:.1f}s,"
          " zero disagreements")
    return 0


def write_artifacts(reports: list, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for rep in reports:
        path = out_dir / f"{rep.family.replace(':', '_')}.json"
        path.write_text(
            json.dumps([c.to_dict() for c in rep.certificates], indent=2,
                       sort_keys=True) + "\n"
        )
        for cert in json.loads(path.read_text()):
            result = check_certificate(cert)
            if not result.ok:
                failures += 1
                print(f"FAIL: {path} does not round-trip: {result.describe()}")
    if not failures:
        print(f"artifacts: {len(reports)} certificate files -> {out_dir},"
              " all round-trip through the checker")
    return failures


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("certificates")
    failures = 0

    prover_failures, reports = check_prover()
    failures += prover_failures

    failures += check_checker(reports)
    failures += check_differential()
    failures += write_artifacts(reports, out_dir)

    if failures:
        print(f"{failures} certify gate failure(s)")
        return 1
    print("certify gates passed: families proven, certificates checked,"
          " tampering detected, differential clean, artifacts written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
