"""Parametric design families: one description, every radix and dimension.

A :class:`SymbolicDesign` describes a *family* of EbDa designs over free
variables ``n`` (dimensions, ``n >= 1``) and ``k`` (radix / group count /
arity, ``k >= 2``), in one of three shapes:

* **stages** — a per-dimension block of partitions instantiated for every
  dimension ``d < n`` in ascending order.  The dateline torus family is
  three stages (``pre -> wrap -> post``); dimension-order (XY/XYZ...)
  routing is two (``[D+] -> [D-]``).
* **spans** — partitions that each span *all* dimensions: an ``anchor``
  pattern over dimension 0 plus one ``others`` pattern instantiated per
  dimension ``d >= 1``.  This is the closed form of Algorithm 1 on the
  uniform one-VC budget: ``PA[X+ X- D+ ...] -> PB[D- ...]``.
* **fixed** — a concrete arrow-notation sequence (the catalog designs);
  ``n`` is pinned by the design and only ``k`` stays free.

The shape is deliberately *not* a concrete channel enumeration: the
prover (:mod:`repro.analyze.symbolic.prover`) reasons over the patterns
and their closed-form partition ordering, and only the differential gate
(:mod:`repro.analyze.symbolic.instantiate`) ever instantiates a family at
a concrete ``(n, k)`` point to cross-check against the concrete linter.

Deliberately *broken* families (missing directions, descending U-turns,
backward or foreign turns, an undateline'd torus, an over-claimed
Algorithm-1 mesh) are registered alongside the valid ones so the
symbolic engine proves violations — with the region of the free-variable
domain where they fire — and not just cleanliness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.catalog import NAMED_DESIGNS, design as catalog_design
from repro.core.channel import Channel
from repro.core.extraction import extract_turns
from repro.core.partition import Partition
from repro.core.sequence import PartitionSequence
from repro.core.turns import Turn, TurnSet
from repro.errors import EbdaError
from repro.topology.classes import NAMED_RULES, rule_for_design

__all__ = [
    "CLAIMED_CATALOG",
    "SYMBOLIC_FAMILIES",
    "ChannelPattern",
    "SpanSchema",
    "StageSchema",
    "SymbolicDesign",
    "symbolic_family",
]

#: Topology kinds a family may quantify over and what ``k`` means there.
KINDS = ("mesh", "torus", "dragonfly", "fattree")

#: Catalog designs that claim full adaptivity (arming EBDA009): the
#: Section-4 minimal constructions, which meet the (n+1)*2^(n-1) bound
#: with equality.
CLAIMED_CATALOG = ("dyxy", "fig7c", "fig9b", "fig9c")


@dataclass(frozen=True)
class ChannelPattern:
    """One channel applied to a *generic* dimension: (sign, vc, class)."""

    sign: int
    vc: int = 1
    cls: str = ""

    def at(self, dim: int) -> Channel:
        """The concrete channel this pattern instantiates on dimension ``dim``."""
        return Channel(dim, self.sign, self.vc, self.cls)

    def to_list(self) -> list[Any]:
        return [self.sign, self.vc, self.cls]


@dataclass(frozen=True)
class StageSchema:
    """One partition of a per-dimension block (all channels share dim ``d``)."""

    name: str
    own: tuple[ChannelPattern, ...]


@dataclass(frozen=True)
class SpanSchema:
    """One partition spanning all dimensions.

    ``anchor`` patterns instantiate on dimension 0; each ``others``
    pattern instantiates once per dimension ``d >= 1``.
    """

    name: str
    anchor: tuple[ChannelPattern, ...] = ()
    others: tuple[ChannelPattern, ...] = ()


@dataclass(frozen=True)
class SymbolicDesign:
    """A parametric design family over free ``n`` (dims) and ``k`` (radix)."""

    name: str
    kind: str
    n_min: int = 1
    n_fixed: int | None = None
    k_min: int = 2
    stages: tuple[StageSchema, ...] = ()
    spans: tuple[SpanSchema, ...] = ()
    fixed: str = ""
    rule_name: str = "none"
    claims_fully_adaptive: bool = False
    #: Extra granted turns (channel-string pairs), used by broken families.
    extra_turns: tuple[tuple[str, str], ...] = ()
    note: str = ""
    #: Set when ``spans``/``stages`` is asserted to equal Algorithm 1's
    #: output on the uniform one-VC budget (cross-checked by the gate).
    algorithm1: bool = False

    def __post_init__(self) -> None:
        shapes = sum(1 for s in (self.stages, self.spans, self.fixed) if s)
        if shapes != 1:
            raise EbdaError(
                f"family {self.name!r} must use exactly one shape"
                " (stages, spans or fixed)"
            )
        if self.kind not in KINDS:
            raise EbdaError(f"unknown topology kind {self.kind!r}")
        if self.kind == "torus" and self.rule_name not in ("none", "dateline"):
            raise EbdaError(
                f"torus family {self.name!r} needs the 'none' or 'dateline' rule"
            )

    # -- shape -------------------------------------------------------------

    @property
    def shape(self) -> str:
        if self.stages:
            return "stages"
        if self.spans:
            return "spans"
        return "fixed"

    def domain(self) -> dict[str, Any]:
        """The free-variable domain in certificate form."""
        if self.n_fixed is not None:
            n_dom: dict[str, Any] = {"min": self.n_fixed, "max": self.n_fixed}
        else:
            n_dom = {"min": self.n_min, "max": None}
        return {"n": n_dom, "k": {"min": self.k_min, "max": None}}

    def contains(self, n: int, k: int) -> bool:
        """Is the instantiation point (n, k) inside the family's domain?"""
        if self.n_fixed is not None and n != self.n_fixed:
            return False
        return n >= self.n_min and k >= self.k_min

    def description(self) -> dict[str, Any]:
        """Self-contained JSON description embedded in every certificate."""
        return {
            "name": self.name,
            "kind": self.kind,
            "shape": self.shape,
            "n_min": self.n_min,
            "n_fixed": self.n_fixed,
            "k_min": self.k_min,
            "stages": [
                {"name": s.name, "own": [p.to_list() for p in s.own]}
                for s in self.stages
            ],
            "spans": [
                {
                    "name": s.name,
                    "anchor": [p.to_list() for p in s.anchor],
                    "others": [p.to_list() for p in s.others],
                }
                for s in self.spans
            ],
            "fixed": self.fixed,
            "rule": self.rule_name,
            "claims_fully_adaptive": self.claims_fully_adaptive,
            "extra_turns": [list(t) for t in self.extra_turns],
        }

    # -- instantiation (used by the differential gate only) ----------------

    def sequence_at(self, n: int) -> PartitionSequence:
        """The concrete partition sequence at ``n`` dimensions."""
        if self.fixed:
            return PartitionSequence.parse(self.fixed)
        if self.stages:
            parts = [
                Partition(
                    tuple(p.at(d) for p in stage.own), name=f"P{d}{stage.name}"
                )
                for d in range(n)
                for stage in self.stages
            ]
            return PartitionSequence(tuple(parts))
        parts = []
        for span in self.spans:
            chans = [p.at(0) for p in span.anchor]
            for d in range(1, n):
                chans.extend(p.at(d) for p in span.others)
            if chans:
                parts.append(Partition(tuple(chans), name=span.name))
        return PartitionSequence(tuple(parts))

    def turnset_at(self, n: int) -> TurnSet:
        """Extractor-granted turns plus the family's extra (mutant) turns."""
        turnset = extract_turns(self.sequence_at(n), validate=False)
        if self.extra_turns:
            extra = TurnSet(
                {
                    "extra": tuple(
                        Turn(Channel.parse(a), Channel.parse(b))
                        for a, b in self.extra_turns
                    )
                }
            )
            turnset = turnset.merged_with(extra)
        return turnset


def symbolic_family(name: str) -> SymbolicDesign:
    """Look up a registered symbolic family by name."""
    try:
        return SYMBOLIC_FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(SYMBOLIC_FAMILIES))
        raise EbdaError(
            f"unknown symbolic family {name!r}; known families: {known}"
        ) from None


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

def _pattern(sign: int, vc: int = 1, cls: str = "") -> ChannelPattern:
    return ChannelPattern(sign, vc, cls)


def _parametric_families() -> dict[str, SymbolicDesign]:
    pos, neg = +1, -1
    families = [
        SymbolicDesign(
            name="dim-order-mesh",
            kind="mesh",
            n_min=1,
            stages=(
                StageSchema("pos", (_pattern(pos),)),
                StageSchema("neg", (_pattern(neg),)),
            ),
            note="dimension-order routing (XY, XYZ, ...) for every n and k",
        ),
        SymbolicDesign(
            name="alg1-mesh",
            kind="mesh",
            n_min=2,
            spans=(
                SpanSchema("PA", anchor=(_pattern(pos), _pattern(neg)),
                           others=(_pattern(pos),)),
                SpanSchema("PB", others=(_pattern(neg),)),
            ),
            algorithm1=True,
            note="closed form of Algorithm 1 on the uniform one-VC budget",
        ),
        SymbolicDesign(
            name="dateline-torus",
            kind="torus",
            n_min=1,
            k_min=3,
            rule_name="dateline",
            stages=(
                StageSchema("pre", (_pattern(pos, 1, "r"), _pattern(neg, 1, "r"))),
                StageSchema("wrap", (_pattern(pos, 2, "w"), _pattern(neg, 2, "w"))),
                StageSchema("post", (_pattern(pos, 2, "r"), _pattern(neg, 2, "r"))),
            ),
            note="the dateline scheme for every k-ary n-cube",
        ),
        # -- deliberately broken families (the prover must find the region) --
        SymbolicDesign(
            name="torus-no-dateline",
            kind="torus",
            n_min=1,
            k_min=3,
            rule_name="none",
            stages=(
                StageSchema("pos", (_pattern(pos),)),
                StageSchema("neg", (_pattern(neg),)),
            ),
            note="broken: single-class torus, every wrap ring stays closed",
        ),
        SymbolicDesign(
            name="mesh-missing-negative",
            kind="mesh",
            n_min=1,
            stages=(StageSchema("pos", (_pattern(pos),)),),
            note="broken: no negative channels, negative routes unservable",
        ),
        SymbolicDesign(
            name="mesh-descending-uturn",
            kind="mesh",
            n_min=1,
            stages=(StageSchema("pair", (_pattern(pos), _pattern(neg))),),
            extra_turns=(("X-", "X+"),),
            note="broken: grants the descending U-turn X- -> X+ (Theorem 2)",
        ),
        SymbolicDesign(
            name="mesh-backward-turn",
            kind="mesh",
            n_min=1,
            stages=(
                StageSchema("pos", (_pattern(pos),)),
                StageSchema("neg", (_pattern(neg),)),
            ),
            extra_turns=(("X-", "X+"),),
            note="broken: grants the backward transition X- -> X+ (Theorem 3)",
        ),
        SymbolicDesign(
            name="mesh-foreign-turn",
            kind="mesh",
            n_min=1,
            stages=(
                StageSchema("pos", (_pattern(pos),)),
                StageSchema("neg", (_pattern(neg),)),
            ),
            extra_turns=(("X+", "X9+"),),
            note="broken: grants a turn into a channel no partition covers",
        ),
        SymbolicDesign(
            name="alg1-claimed",
            kind="mesh",
            n_min=2,
            spans=(
                SpanSchema("PA", anchor=(_pattern(pos), _pattern(neg)),
                           others=(_pattern(pos),)),
                SpanSchema("PB", others=(_pattern(neg),)),
            ),
            claims_fully_adaptive=True,
            algorithm1=True,
            note="broken: claims full adaptivity with 2n channels"
            " (needs (n+1)*2^(n-1))",
        ),
    ]
    return {f.name: f for f in families}


def _catalog_kind(name: str) -> tuple[str, int]:
    """(topology kind, minimum k) for a catalog design's native engine."""
    if name.startswith("dragonfly"):
        return "dragonfly", 3
    if name == "fattree-updown":
        return "fattree", 2
    return "mesh", 2


def _catalog_rule(name: str) -> str:
    """The :data:`NAMED_RULES` name of :func:`rule_for_design`'s rule."""
    rule = rule_for_design(name)
    return next(key for key, named in NAMED_RULES.items() if named is rule)


def _catalog_families() -> dict[str, SymbolicDesign]:
    out: dict[str, SymbolicDesign] = {}
    for name in sorted(NAMED_DESIGNS):
        seq = catalog_design(name)
        kind, k_min = _catalog_kind(name)
        n_dims = len({ch.dim for ch in seq.all_channels})
        family = SymbolicDesign(
            name=f"catalog:{name}",
            kind=kind,
            n_min=n_dims,
            n_fixed=n_dims,
            k_min=k_min,
            fixed=seq.arrow_notation(),
            rule_name=_catalog_rule(name),
            claims_fully_adaptive=name in CLAIMED_CATALOG,
            note=f"catalog design {name!r}, radix-parametric",
        )
        out[family.name] = family
    return out


def _build_registry() -> dict[str, SymbolicDesign]:
    registry = _parametric_families()
    registry.update(_catalog_families())
    return registry


#: Every registered symbolic family, parametric and catalog alike.
SYMBOLIC_FAMILIES: dict[str, SymbolicDesign] = _build_registry()

# Quiet linters: `field` is re-exported for schema dataclasses in tests.
_ = field
