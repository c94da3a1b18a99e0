"""Registry-backed named specs: picklable stand-ins for callables.

:class:`~repro.sim.runner.RunConfig` promises picklability (the parallel
sweep engine ships configs to worker processes), but its callable-valued
fields — ``pattern``, ``selection``, ``routing_factory`` — historically
held lambdas and closures that :mod:`pickle` rejects.  This module closes
the gap with *named specs*: every field accepts either the raw callable
(kept working for in-process runs) or a registry name resolved at use
time:

* ``pattern="uniform"``   -> :data:`repro.sim.patterns.NAMED_PATTERNS`;
* ``selection="first"``   -> :data:`repro.routing.selection.NAMED_POLICIES`;
* ``routing="west-first"`` -> :data:`NAMED_ROUTING_FACTORIES` (native
  implementations), any :data:`repro.core.catalog.NAMED_DESIGNS` name, an
  explicit ``"ebda:<design>"``, or raw arrow notation such as
  ``"X- -> X+ Y+ Y-"`` — the latter three compile through
  :class:`EbdaDesignFactory`, a frozen (hence picklable) factory object.

Named specs are also what makes results *cacheable*: :func:`spec_token`
turns a spec into the stable string the content-addressed cache key is
built from.  A raw callable that is not a registered named function has
no stable token (``spec_token`` returns ``None``) and therefore opts its
run out of caching rather than risking a stale hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import EbdaError, RoutingError
from repro.routing.selection import NAMED_POLICIES, SelectionPolicy
from repro.sim.patterns import NAMED_PATTERNS, TrafficPattern
from repro.topology.base import Topology
from repro.topology.classes import NAMED_RULES, ClassRule

if TYPE_CHECKING:
    from repro.routing.base import RoutingFunction

#: A factory producing a fresh routing function for a topology.
RoutingFactory = Callable[[Topology], "RoutingFunction"]

#: Spec types accepted by :class:`~repro.sim.runner.RunConfig` fields.
PatternSpec = "TrafficPattern | str"
SelectionSpec = "SelectionPolicy | str"
RoutingSpec = "RoutingFactory | str"


@dataclass(frozen=True)
class EbdaDesignFactory:
    """A picklable routing factory for an EbDa design.

    ``spec`` is a :data:`repro.core.catalog.NAMED_DESIGNS` name or raw
    arrow notation; the partition sequence is compiled lazily per
    topology so the factory itself stays a plain frozen value that
    travels across process boundaries.
    """

    spec: str
    directions: str = "minimal"
    fallback: str = "none"

    def __call__(self, topology: Topology) -> "RoutingFunction":
        from repro.core.catalog import resolve_design
        from repro.routing.table import TurnTableRouting
        from repro.topology.classes import rule_for_design

        design, name = resolve_design(self.spec)
        label = f"ebda:{name}" if name else f"EbDa[{design.arrow_notation()}]"
        return TurnTableRouting(
            topology, design, rule_for_design(name),
            directions=self.directions, fallback=self.fallback, label=label,
        )


def _xy(topology: Topology) -> "RoutingFunction":
    from repro.routing.deterministic import xy_routing

    return xy_routing(topology)


def _yx(topology: Topology) -> "RoutingFunction":
    from repro.routing.deterministic import yx_routing

    return yx_routing(topology)


def _west_first(topology: Topology) -> "RoutingFunction":
    from repro.routing.turnmodels import WestFirst

    return WestFirst(topology)


def _north_last(topology: Topology) -> "RoutingFunction":
    from repro.routing.turnmodels import NorthLast

    return NorthLast(topology)


def _negative_first(topology: Topology) -> "RoutingFunction":
    from repro.routing.turnmodels import NegativeFirst

    return NegativeFirst(topology)


def _odd_even(topology: Topology) -> "RoutingFunction":
    from repro.routing.oddeven import OddEven

    return OddEven(topology)


def _dyxy(topology: Topology) -> "RoutingFunction":
    from repro.routing.dyxy import DyXY

    return DyXY(topology)


def _fully_adaptive(topology: Topology) -> "RoutingFunction":
    from repro.routing.fullyadaptive import MinimalFullyAdaptive

    return MinimalFullyAdaptive(topology)


def _unrestricted(topology: Topology) -> "RoutingFunction":
    from repro.routing.fullyadaptive import UnrestrictedAdaptive

    return UnrestrictedAdaptive(topology)


#: Name -> factory for the native routing implementations.  Catalog
#: designs need no entry here: any :data:`~repro.core.catalog.NAMED_DESIGNS`
#: name (or ``"ebda:<name>"``, or arrow notation) resolves through
#: :class:`EbdaDesignFactory` instead.
NAMED_ROUTING_FACTORIES: dict[str, RoutingFactory] = {
    "xy": _xy,
    "yx": _yx,
    "west-first": _west_first,
    "north-last": _north_last,
    "negative-first": _negative_first,
    "odd-even": _odd_even,
    "dyxy": _dyxy,
    "ebda-fully-adaptive": _fully_adaptive,
    "unrestricted-adaptive": _unrestricted,
}


def register_routing_factory(name: str, factory: RoutingFactory) -> None:
    """Register a routing factory under a stable name.

    Registered names resolve in :func:`resolve_routing_factory` and — when
    the factory is a module-level callable — token-ise for the result
    cache.  Re-registering a name overwrites it.
    """
    NAMED_ROUTING_FACTORIES[name] = factory


def resolve_pattern(spec: "TrafficPattern | str") -> TrafficPattern:
    """A pattern name or callable -> the pattern callable."""
    if callable(spec):
        return spec
    try:
        return NAMED_PATTERNS[spec]
    except KeyError:
        known = ", ".join(sorted(NAMED_PATTERNS))
        raise EbdaError(f"unknown pattern {spec!r}; known patterns: {known}") from None


def resolve_selection(spec: "SelectionPolicy | str") -> SelectionPolicy:
    """A selection-policy name or callable -> the policy callable."""
    if callable(spec):
        return spec
    try:
        return NAMED_POLICIES[spec]
    except KeyError:
        known = ", ".join(sorted(NAMED_POLICIES))
        raise EbdaError(f"unknown selection {spec!r}; known policies: {known}") from None


def resolve_routing_factory(spec: "RoutingFactory | str") -> RoutingFactory:
    """A routing spec -> a factory ``topology -> RoutingFunction``.

    Strings resolve, in order, against :data:`NAMED_ROUTING_FACTORIES`,
    ``"ebda:<catalog-name>"``, plain catalog design names, and finally
    arrow notation (``"X- -> X+ Y+ Y-"``).
    """
    if callable(spec):
        return spec
    if not isinstance(spec, str):
        raise RoutingError(
            f"routing spec must be a name or a callable factory, got"
            f" {type(spec).__name__}"
        )
    if spec in NAMED_ROUTING_FACTORIES:
        return NAMED_ROUTING_FACTORIES[spec]
    from repro.core import PartitionSequence, catalog

    name = spec.removeprefix("ebda:")
    if name in catalog.NAMED_DESIGNS:
        return EbdaDesignFactory(name)
    try:
        PartitionSequence.parse(spec)
    except EbdaError:
        known = sorted(set(NAMED_ROUTING_FACTORIES) | set(catalog.NAMED_DESIGNS))
        raise RoutingError(
            f"unknown routing spec {spec!r}; known names: {', '.join(known)}"
            " (arrow notation also accepted)"
        ) from None
    return EbdaDesignFactory(spec)


def _reverse(registry: dict[str, object], value: object) -> str | None:
    for name, candidate in registry.items():
        if candidate is value:
            return name
    return None


def spec_token(kind: str, spec: object) -> str | None:
    """A stable cache-key token for a spec, or ``None`` when it has none.

    Named specs token-ise as ``"name:<name>"``; registered or module-level
    functions as ``"func:<module>.<qualname>"``; picklable frozen factories
    (e.g. :class:`EbdaDesignFactory`) via their ``repr``.  Anything else —
    lambdas, closures, bound methods of mutable objects — returns ``None``,
    which marks the run *uncacheable* (never silently mis-keyed).
    """
    if kind == "metrics":
        # A metered run is uncacheable by design: a cache hit replays the
        # stored SimStats but cannot replay the samples the collector
        # would have taken.  The disabled default stays cacheable.
        return "none" if not spec else None
    if kind == "workload":
        # Traces are plain data: named ones token-ise by name, anonymous
        # ones by content digest (lazy import — chaos depends on sim).
        from repro.chaos.workloads import workload_token

        return workload_token(spec)
    if spec is None:
        return "none"
    if isinstance(spec, str):
        return f"name:{spec}"
    if isinstance(spec, EbdaDesignFactory):
        return f"ebda:{spec!r}"
    registry = {
        "pattern": NAMED_PATTERNS,
        "selection": NAMED_POLICIES,
        "routing": NAMED_ROUTING_FACTORIES,
        "rule": NAMED_RULES,
    }.get(kind, {})
    name = _reverse(registry, spec)
    if name is not None:
        return f"name:{name}"
    qualname = getattr(spec, "__qualname__", "")
    module = getattr(spec, "__module__", "")
    if qualname and module and "<" not in qualname and "<" not in module:
        # A plain module-level function: importable by name, so the token
        # is stable across processes and sessions.
        import importlib

        try:
            target: object = importlib.import_module(module)
            for part in qualname.split("."):
                target = getattr(target, part)
        except (ImportError, AttributeError):
            return None
        if target is spec:
            return f"func:{module}.{qualname}"
    return None
