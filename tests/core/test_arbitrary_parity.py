"""The integer-indexed existence oracle decides exactly as the plain one did.

The frozen functions below keep :func:`existence_verdict`, both relation
builders of :mod:`repro.core.arbitrary` and
:func:`repro.cdg.graph.build_turn_cdg` exactly as they read before the
oracle moved onto sorted wire positions: a ``sorted()`` per wire, ``Wire``
keys throughout, and a ``==``/``allows`` call per wire pair.  The tests
require the current code to return equal relations (items in order),
equal verdicts (all five fields) and equal dependency graphs (node order
and successor order) on catalog designs, cyclic controls, fuzz designs of
every family and hand-built relations.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Iterable, Mapping
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdg.graph import DependencyGraph, build_turn_cdg
from repro.core import PartitionSequence, catalog
from repro.core.arbitrary import (
    ArbitraryVerdict,
    dependency_relation_from_routing,
    dependency_relation_from_turns,
    existence_verdict,
)
from repro.core.channel import Channel
from repro.core.extraction import extract_turns
from repro.core.turns import TurnSet
from repro.fuzz import DesignGenerator
from repro.fuzz.design import FAMILIES
from repro.routing.dragonfly import DragonflyRouting, DragonflyValiant
from repro.topology import Dragonfly, FatTree, GraphTopology, Mesh
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes, rule_for_design
from repro.topology.wires import Wire, wires_for

# ---------------------------------------------------------------------------
# The frozen bodies
# ---------------------------------------------------------------------------


def frozen_relation_from_turns(
    topology: Topology,
    turnset: TurnSet,
    channel_classes: Iterable[Channel] | None = None,
    rule: ClassRule = no_classes,
) -> dict[Wire, tuple[Wire, ...]]:
    classes = tuple(channel_classes) if channel_classes is not None else tuple(turnset.channels())
    wires = wires_for(topology, classes, rule)
    outgoing: dict = {}
    for wire in wires:
        outgoing.setdefault(wire.src, []).append(wire)
    relation: dict[Wire, tuple[Wire, ...]] = {}
    for a in sorted(wires):
        waits = [
            b
            for b in outgoing.get(a.dst, ())
            if a.channel == b.channel or turnset.allows(a.channel, b.channel)
        ]
        relation[a] = tuple(sorted(waits))
    return relation


def frozen_relation_from_routing(
    topology: Topology, routing, rule: ClassRule = no_classes
) -> dict[Wire, tuple[Wire, ...]]:
    wires = wires_for(topology, routing.channel_classes, rule)
    wire_lookup: dict[tuple, Wire] = {(w.src, w.dst, w.channel): w for w in wires}
    waits: dict[Wire, set[Wire]] = {w: set() for w in wires}
    for dst in sorted(topology.nodes):
        frontier: list[Wire] = []
        seen: set[Wire] = set()
        for src in sorted(topology.nodes):
            if src == dst:
                continue
            for nxt, ch in routing.candidates(src, dst, None):
                a = wire_lookup.get((src, nxt, ch))
                if a is not None and a not in seen:
                    seen.add(a)
                    frontier.append(a)
        while frontier:
            a = frontier.pop()
            if a.dst == dst:
                continue
            for nxt, ch in routing.candidates(a.dst, dst, a.channel):
                b = wire_lookup.get((a.dst, nxt, ch))
                if b is None:
                    continue
                waits[a].add(b)
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return {w: tuple(sorted(waits[w])) for w in sorted(waits)}


def frozen_existence_verdict(relation: Mapping[Wire, tuple[Wire, ...]]) -> ArbitraryVerdict:
    nodes: set[Wire] = set(relation)
    for out in relation.values():
        nodes.update(out)
    succs: dict[Wire, tuple[Wire, ...]] = {
        w: tuple(sorted(set(relation.get(w, ())))) for w in nodes
    }
    out_deg = {w: len(succs[w]) for w in nodes}
    preds: dict[Wire, list[Wire]] = {w: [] for w in nodes}
    for w in sorted(nodes):
        for s in succs[w]:
            preds[s].append(w)
    queue: deque[Wire] = deque(sorted(w for w in nodes if out_deg[w] == 0))
    removed: set[Wire] = set()
    while queue:
        w = queue.popleft()
        removed.add(w)
        for p in preds[w]:
            out_deg[p] -= 1
            if out_deg[p] == 0:
                queue.append(p)
    core = nodes - removed
    n_edges = sum(len(s) for s in succs.values())
    if not core:
        return ArbitraryVerdict(True, len(nodes), n_edges, 0)
    return ArbitraryVerdict(
        False, len(nodes), n_edges, len(core), _frozen_witness_cycle(core, succs)
    )


def _frozen_witness_cycle(
    core: set[Wire], succs: Mapping[Wire, tuple[Wire, ...]]
) -> tuple[str, ...]:
    start = min(core)
    path = [start]
    index = {start: 0}
    cur = start
    while True:
        cur = min(s for s in succs[cur] if s in core)
        if cur in index:
            cycle = path[index[cur]:]
            break
        index[cur] = len(path)
        path.append(cur)
    pivot = cycle.index(min(cycle))
    cycle = cycle[pivot:] + cycle[:pivot]
    return tuple(str(w) for w in cycle)


def frozen_build_turn_cdg(
    topology: Topology,
    turnset: TurnSet,
    channel_classes: Iterable[Channel] | None = None,
    rule: ClassRule = no_classes,
) -> DependencyGraph:
    classes = turnset.channels() if channel_classes is None else channel_classes
    wires = wires_for(topology, dict.fromkeys(classes), rule)  # each class once
    outgoing: dict = {}
    for wire in wires:
        outgoing.setdefault(wire.src, []).append(wire)

    graph = DependencyGraph()
    for a in wires:
        graph[a] = [
            b for b in outgoing.get(a.dst, ())
            if a.channel == b.channel or turnset.allows(a.channel, b.channel)
        ]
    return graph


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def assert_same_verdict(relation: Mapping) -> ArbitraryVerdict:
    got = existence_verdict(relation)
    want = frozen_existence_verdict(relation)
    assert type(got) is ArbitraryVerdict
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    return got


def assert_same_turns(topology, turnset, classes, rule=no_classes) -> ArbitraryVerdict:
    """Relation, verdict and conservative CDG all equal the frozen ones."""
    classes = tuple(classes) if classes is not None else None
    relation = dependency_relation_from_turns(topology, turnset, classes, rule)
    frozen = frozen_relation_from_turns(topology, turnset, classes, rule)
    assert list(relation.items()) == list(frozen.items())
    graph = build_turn_cdg(topology, turnset, classes, rule)
    frozen_graph = frozen_build_turn_cdg(topology, turnset, classes, rule)
    assert type(graph) is DependencyGraph
    assert list(graph.items()) == list(frozen_graph.items())
    return assert_same_verdict(relation)


def assert_same_routing(topology, routing, rule=no_classes) -> ArbitraryVerdict:
    relation = dependency_relation_from_routing(topology, routing, rule)
    frozen = frozen_relation_from_routing(topology, routing, rule)
    assert list(relation.items()) == list(frozen.items())
    return assert_same_verdict(relation)


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------

#: Beyond-mesh catalog designs on their own topology and routing engine.
NATIVE = {
    "dragonfly-minimal": (lambda: Dragonfly(3), DragonflyRouting),
    "dragonfly-valiant": (lambda: Dragonfly(3), DragonflyValiant),
    "fattree-updown": (lambda: FatTree(4, 2, 2), None),
}


def host(name: str, seq: PartitionSequence) -> Topology:
    if name in NATIVE:
        return NATIVE[name][0]()
    dims = len({ch.dim for ch in seq.all_channels})
    return Mesh(5, 5) if dims <= 2 else Mesh(*((3,) * dims))


def test_catalog_designs_on_native_topologies():
    verdicts = []
    for name in sorted(catalog.NAMED_DESIGNS):
        seq = catalog.design(name)
        topology = host(name, seq)
        rule = rule_for_design(name)
        turnset = extract_turns(seq)
        verdicts.append(assert_same_turns(topology, turnset, seq.all_channels, rule))
        engine = NATIVE.get(name, (None, None))[1]
        if engine is not None:
            assert assert_same_routing(topology, engine(topology), rule).safe
    assert any(v.safe for v in verdicts)


def test_all_turns_control_and_cyclic_mutants():
    all_turns = PartitionSequence.parse("X+ X- Y+ Y-")
    control = assert_same_turns(
        Mesh(5, 5), extract_turns(all_turns, validate=False), all_turns.all_channels
    )
    assert not control.safe
    generator = DesignGenerator(1, families=("mesh",), mutant_fraction=1.0)
    unsafe = 0
    for trial in range(12):
        fuzz = generator.design_for(trial)
        seq, turnset = fuzz.compile()
        verdict = assert_same_turns(fuzz.topology(), turnset, seq.all_channels, fuzz.class_rule())
        unsafe += not verdict.safe
    assert unsafe


@given(
    seed=st.integers(min_value=0, max_value=999),
    trial=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=40, deadline=None)
def test_fuzz_designs_of_every_family(seed, trial):
    design = DesignGenerator(seed, families=FAMILIES, mutant_fraction=0.5).design_for(trial)
    seq, turnset = design.compile()
    topology = design.topology()
    rule = design.class_rule()
    assert_same_turns(topology, turnset, seq.all_channels, rule)
    if design.engine != "table":
        assert_same_routing(topology, design.engine_routing(topology), rule)


def test_one_shot_generator_as_channel_classes():
    seq = catalog.design("negative-first")
    turnset = extract_turns(seq)
    topology = Mesh(4, 4)
    relation = dependency_relation_from_turns(topology, turnset, iter(seq.all_channels))
    assert list(relation.items()) == list(
        frozen_relation_from_turns(topology, turnset, iter(seq.all_channels)).items()
    )
    graph = build_turn_cdg(topology, turnset, iter(seq.all_channels))
    assert list(graph.items()) == list(
        frozen_build_turn_cdg(topology, turnset, iter(seq.all_channels)).items()
    )
    assert existence_verdict(relation).safe


def test_default_and_repeated_channel_classes():
    seq = PartitionSequence.parse("X+ Y+ -> X- Y-")
    turnset = extract_turns(seq, validate=False)
    assert_same_turns(Mesh(4, 3), turnset, None)
    # A class listed twice instantiates its wires twice in the relation
    # builder (and once in the CDG, which keeps each class once).
    assert_same_turns(Mesh(4, 3), turnset, seq.all_channels + seq.all_channels[:2])


# ---------------------------------------------------------------------------
# Hand-built relations
# ---------------------------------------------------------------------------

#: A pool of wires on a 4-ring with two classes, in scrambled order.
RING = GraphTopology([((i,), ((i + 1) % 4,)) for i in range(4)] + [((2,), (0,))])
POOL = tuple(reversed(wires_for(RING, (Channel(0, +1, 1), Channel(0, +1, 2)))))


def wire(i: int) -> Wire:
    return POOL[i]


def test_empty_relation():
    assert assert_same_verdict({}) == ArbitraryVerdict(True, 0, 0, 0)


def test_self_loop_and_successor_only_wires():
    verdict = assert_same_verdict({wire(0): (wire(0), wire(3)), wire(5): (wire(4),)})
    assert not verdict.safe
    assert verdict.wires == 4 and verdict.core == 1
    assert verdict.cycle == (str(wire(0)),)


def test_unsorted_and_duplicate_successors():
    a, b, c, d = wire(1), wire(6), wire(2), wire(7)
    relation = {a: (d, b, b, c), b: [c, a, c], c: (), d: (d, a)}
    verdict = assert_same_verdict(relation)
    assert not verdict.safe and (verdict.dependencies, verdict.core) == (7, 3)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=len(POOL) - 1),
        st.lists(st.integers(min_value=0, max_value=len(POOL) - 1), max_size=6),
        max_size=len(POOL),
    )
)
@settings(max_examples=200, deadline=None)
def test_random_relations(spec):
    assert_same_verdict({wire(k): tuple(wire(v) for v in vs) for k, vs in spec.items()})


# ---------------------------------------------------------------------------
# Sort once
# ---------------------------------------------------------------------------


def count_wire_comparisons(fn, *args) -> int:
    calls = 0
    lt = Wire.__lt__

    def counting(self: Wire, other: Wire) -> bool:
        nonlocal calls
        calls += 1
        return lt(self, other)

    with mock.patch.object(Wire, "__lt__", counting):
        fn(*args)
    return calls


def test_relation_and_peel_sort_each_wire_set_once():
    """No ``Wire`` comparisons at all: wires sort by ``Wire.order_key``.

    The all-turns design is cyclic, so the witness walk runs too.
    """
    topology = Mesh(6, 6)
    seq = PartitionSequence.parse("X+ X- Y+ Y-")
    turnset = extract_turns(seq, validate=False)
    classes = seq.all_channels
    wires = wires_for(topology, classes)
    one_sort = count_wire_comparisons(sorted, wires)
    built = count_wire_comparisons(dependency_relation_from_turns, topology, turnset, classes)
    assert built == 0 < one_sort

    relation = dependency_relation_from_turns(topology, turnset, classes)
    nodes = set(relation)
    for out in relation.values():
        nodes.update(out)
    assert not existence_verdict(relation).safe
    peeled = count_wire_comparisons(existence_verdict, relation)
    assert peeled == 0 < count_wire_comparisons(sorted, nodes)
    # A safe relation needs no order at all: nothing is compared.
    safe = dependency_relation_from_turns(topology, extract_turns(catalog.design("xy")))
    assert existence_verdict(safe).safe
    assert count_wire_comparisons(existence_verdict, safe) == 0
    # The frozen bodies sort per wire: the guard would catch them.
    assert count_wire_comparisons(frozen_relation_from_turns, topology, turnset, classes) > one_sort
    assert count_wire_comparisons(frozen_existence_verdict, relation) > one_sort

