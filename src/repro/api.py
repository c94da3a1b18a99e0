"""The stable top-level facade: ``repro.run_point``, ``repro.sweep``,
``repro.verify``.

Three calls cover the library's everyday surface:

* :func:`run_point` — simulate one point from a :class:`RunConfig`;
* :func:`sweep` — a rate sweep through the parallel engine, returning a
  :class:`~repro.sim.parallel.SweepReport` (results + wall time + cache
  hit/miss accounting);
* :func:`verify` — deadlock-freedom verdict for *whatever you have*: an
  EbDa design, an explicit turn set, a live routing function, a catalog
  name or raw arrow notation.

Everything here is a thin veneer over the specialised entry points
(:func:`repro.sim.runner.run_point`, :class:`repro.sim.parallel.SweepEngine`,
:func:`repro.cdg.verify_design` and friends), which all remain public.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.sequence import PartitionSequence
from repro.core.turns import TurnSet
from repro.errors import EbdaError
from repro.routing.base import RoutingFunction
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes

if TYPE_CHECKING:
    from pathlib import Path

    from repro.cdg.verify import Verdict
    from repro.sim.parallel import ResultCache, SweepReport
    from repro.sim.runner import RunConfig, RunResult

__all__ = ["run_point", "sweep", "verify"]


def run_point(
    topology: Topology,
    routing: "RoutingFunction | str | object",
    config: RunConfig | None = None,
    *,
    rule: ClassRule = no_classes,
    cache: "bool | str | Path | ResultCache" = False,
) -> RunResult:
    """Simulate one point.

    ``routing`` may be a live :class:`RoutingFunction`, a factory, or a
    named spec (``"xy"``, a catalog design name, arrow notation).  The
    config says everything the point simulates, its backend and telemetry
    included.  With ``cache`` enabled the point is served from / stored
    into the result cache.  The point runs through
    :meth:`SweepEngine.run_point <repro.sim.parallel.SweepEngine.run_point>`,
    which appends a ``run_point`` record when a run ledger is armed.

    >>> from repro import run_point, RunConfig
    >>> from repro.topology import Mesh
    >>> run_point(Mesh(4, 4), "xy", RunConfig(cycles=200)).deadlocked
    False
    """
    from repro.sim.parallel import SweepEngine
    from repro.sim.runner import RunConfig

    config = config if config is not None else RunConfig()
    return SweepEngine(cache=cache).run_point(topology, routing, config, rule).result


def sweep(
    topology: Topology,
    routing: "RoutingFunction | str | object",
    rates: Sequence[float],
    config: RunConfig | None = None,
    *,
    rule: ClassRule = no_classes,
    jobs: int = 1,
    cache: "bool | str | Path | ResultCache" = False,
) -> SweepReport:
    """Latency/throughput sweep over injection rates.

    ``SweepEngine(jobs, cache).sweep(...)`` in one call; ``routing`` is
    what :func:`run_point` takes.  Fans points out over ``jobs`` worker
    processes (named specs keep the work picklable; raw callables degrade
    to the deterministic in-process path) and consults the result cache
    when ``cache`` is enabled.  A caller with a ready engine calls its
    :meth:`~repro.sim.parallel.SweepEngine.sweep`.
    Returns a :class:`~repro.sim.parallel.SweepReport`; the bare result
    list is its ``.results``.
    """
    from repro.sim.parallel import SweepEngine
    from repro.sim.runner import RunConfig

    config = config if config is not None else RunConfig()
    return SweepEngine(jobs=jobs, cache=cache).sweep(topology, routing, rates, config, rule)


def verify(
    subject: "PartitionSequence | TurnSet | RoutingFunction | str",
    topology: Topology,
    rule: ClassRule | None = None,
) -> "Verdict":
    """Deadlock-freedom verdict for a design, turn set or routing function.

    Dispatches on the subject's type to :func:`~repro.cdg.verify_design`,
    :func:`~repro.cdg.verify_turnset` or
    :func:`~repro.cdg.verify_routing`.  A string subject is resolved as a
    catalog design name (which also implies its class rule, unless
    ``rule`` overrides it) or arrow notation.

    >>> from repro import verify
    >>> from repro.topology import Mesh
    >>> verify("west-first", Mesh(4, 4)).acyclic
    True
    """
    from repro.cdg.verify import verify_design, verify_routing, verify_turnset

    if isinstance(subject, str):
        from repro.core.catalog import resolve_design
        from repro.topology.classes import rule_for_design

        design, name = resolve_design(subject)
        if rule is None:
            rule = rule_for_design(name)
        return verify_design(design, topology, rule)
    rule = rule if rule is not None else no_classes
    if isinstance(subject, PartitionSequence):
        return verify_design(subject, topology, rule)
    if isinstance(subject, TurnSet):
        return verify_turnset(subject, topology, rule)
    if isinstance(subject, RoutingFunction):
        return verify_routing(subject, topology, rule)
    raise EbdaError(
        f"cannot verify a {type(subject).__name__}: expected a"
        " PartitionSequence, TurnSet, RoutingFunction or design name"
    )
