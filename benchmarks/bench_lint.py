"""Lint-vs-verify benchmark: the static analyzer's whole selling point.

``repro lint`` exists because a designer should not need a concrete CDG
build (O(topology size) wires + a cycle search over them) just to learn a
partition sequence breaks Theorem 1.  These benchmarks put a number on
that gap: linting the full catalog is topology-size independent, while
`verify_design` grows with the mesh.

Run with ``pytest benchmarks/bench_lint.py --benchmark-only -s``.
"""

import pytest

from repro.analyze import Analyzer, DesignUnit
from repro.cdg import verify_design
from repro.core import catalog
from repro.topology import Mesh
from repro.topology.classes import rule_for_design


def _catalog_units() -> list[DesignUnit]:
    units = []
    for name in sorted(catalog.NAMED_DESIGNS):
        design = catalog.design(name)
        n_dims = len({ch.dim for ch in design.all_channels})
        units.append(
            DesignUnit.from_sequence(
                design,
                name=name,
                topology=Mesh(*((4,) * n_dims)),
                rule=rule_for_design(name),
            )
        )
    return units


def test_lint_full_catalog(benchmark):
    """Statically lint every catalog design (all default rules)."""
    units = _catalog_units()
    analyzer = Analyzer()

    def run():
        return [analyzer.run(u) for u in units]

    reports = benchmark(run)
    assert len(reports) == len(units)
    assert all(r.ok for r in reports)


def test_verify_full_catalog_concrete_cdg(benchmark):
    """The comparison point: concrete-CDG verification of the same catalog."""
    pairs = []
    for name in sorted(catalog.NAMED_DESIGNS):
        design = catalog.design(name)
        n_dims = len({ch.dim for ch in design.all_channels})
        pairs.append((design, Mesh(*((4,) * n_dims)), rule_for_design(name)))

    def run():
        return [verify_design(d, topo, rule=rule) for d, topo, rule in pairs]

    verdicts = benchmark(run)
    assert all(v.acyclic for v in verdicts)


@pytest.mark.parametrize("radix", [4, 8, 16])
def test_lint_is_topology_size_independent(benchmark, radix):
    """Lint cost on RxR meshes barely moves with R (wrap analysis only).

    `verify_design` on the same meshes walks every wire; the lint pass
    touches the topology only through its wrap-link ring structure, so
    the three radixes should land within noise of each other.
    """
    design = catalog.design("west-first")
    unit = DesignUnit.from_sequence(
        design, name="west-first", topology=Mesh(radix, radix)
    )
    analyzer = Analyzer()
    report = benchmark(analyzer.run, unit)
    assert report.ok


@pytest.mark.parametrize("radix", [4, 8, 16])
def test_verify_scales_with_topology(benchmark, radix):
    """The contrast: concrete-CDG verification cost grows with the mesh."""
    design = catalog.design("west-first")
    verdict = benchmark(verify_design, design, Mesh(radix, radix))
    assert verdict.acyclic


def test_certify_full_registry_symbolic(benchmark):
    """The third column: one symbolic proof covers EVERY radix at once.

    Where ``test_lint_full_catalog`` lints each design at one concrete
    (n, k) and ``verify_design`` rebuilds a CDG per topology, ``certify``
    proves the rules over the whole parametric domain — so its wall time
    is the cost of verifying infinitely many instantiations.  The record
    lands in ``BENCH_certify.json`` next to the lint numbers.
    """
    import time

    from repro.analyze import certify_all, check_certificates
    from repro.analyze.symbolic import SYMBOLIC_FAMILIES

    reports = benchmark(certify_all)
    assert len(reports) == len(SYMBOLIC_FAMILIES)
    certs = [c.to_dict() for rep in reports for c in rep.certificates]

    check_start = time.perf_counter()
    results = check_certificates(certs)
    check_s = time.perf_counter() - check_start
    assert all(r.ok for r in results)

    try:
        from benchmarks.benchlib import write_bench_json
    except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
        from benchlib import write_bench_json

    wall_s = benchmark.stats.stats.mean
    path = write_bench_json(
        "certify",
        params={
            "families": len(reports),
            "certificates": len(certs),
        },
        wall_s=wall_s,
        throughput=len(certs) / wall_s if wall_s else None,
        extra={
            "certify_s": wall_s,
            "certcheck_s": check_s,
            "violations": sum(
                1 for rep in reports for c in rep.certificates
                if c.status == "violation"
            ),
        },
    )
    print(f"\nbenchmark record written to {path}")
