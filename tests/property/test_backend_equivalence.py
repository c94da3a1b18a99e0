"""Property tests: vector backend == reference on random safe designs.

Hypothesis draws random Algorithm-1 VC budgets (meshes), dateline
tori, minimally-routed dragonflies and up*/down* fat-trees, runs the
identical traffic through both engines and requires bit-identical
``SimStats.to_dict()``.  A crafted 2x2 ring then checks that a
*deadlock* — declaration cycle included — also reproduces exactly,
using the same `CycleRouting` worm-parking construction the
differential fuzz oracle uses.  Where the vector backend does not
support a configuration (fault injection), the ``ConfigError`` is
asserted explicitly rather than silently skipped.  Batches of one to
four runs on one network (``run_batch``) must reproduce each run's
reference stats too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partition_vc_budget
from repro.core.torus_designs import dateline_design
from repro.errors import ConfigError
from repro.routing import DragonflyRouting, TurnTableRouting, UpDownRouting
from repro.sim import (
    NetworkSimulator,
    ScriptedTraffic,
    TrafficConfig,
    TrafficGenerator,
    VectorSimulator,
)
from repro.sim.vector import run_batch
from repro.topology import Dragonfly, FatTree, Mesh, Torus
from repro.topology.classes import NAMED_RULES, no_classes

MESH = Mesh(4, 4)
TORUS = Torus(4, 4)
DATELINE = NAMED_RULES["dateline"]


def _stats_pair(topology, routing, rule, *, cycles, rate, seed, depth, atomic=False):
    out = []
    for cls in (NetworkSimulator, VectorSimulator):
        sim = cls(
            topology, routing, rule,
            buffer_depth=depth, atomic_buffers=atomic, watchdog=1500, seed=seed,
        )
        traffic = TrafficGenerator(
            topology,
            TrafficConfig(injection_rate=rate, packet_length=4, seed=seed),
        )
        out.append(sim.run(cycles, traffic, drain=True).to_dict())
    return out


@given(
    budget=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=2),
    rate=st.floats(min_value=0.02, max_value=0.18),
    depth=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=9999),
    atomic=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_random_algorithm1_mesh_designs_match(budget, rate, depth, seed, atomic):
    design = partition_vc_budget(budget)
    routing = TurnTableRouting(MESH, design)
    ref, vec = _stats_pair(
        MESH, routing, no_classes,
        cycles=250, rate=rate, seed=seed, depth=depth, atomic=atomic,
    )
    assert ref == vec
    assert not ref["deadlocked"]


@given(
    budget=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=2),
    depth=st.integers(min_value=1, max_value=4),
    atomic=st.booleans(),
    runs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=250),
            st.floats(min_value=0.02, max_value=0.3),
            st.integers(min_value=0, max_value=9999),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=8, deadline=None)
def test_batch_replicas_match_reference(budget, depth, atomic, runs):
    """B runs of one network in one batch, each against its reference run."""
    routing = TurnTableRouting(MESH, partition_vc_budget(budget))

    def traffic(rate, seed):
        return TrafficGenerator(
            MESH, TrafficConfig(injection_rate=rate, packet_length=4, seed=seed)
        )

    options = dict(buffer_depth=depth, atomic_buffers=atomic, watchdog=60)
    batch = run_batch(
        MESH, routing, no_classes,
        [(cycles, traffic(rate, seed)) for cycles, rate, seed in runs],
        **options,
    )
    for (cycles, rate, seed), got in zip(runs, batch):
        ref = NetworkSimulator(MESH, routing, no_classes, **options).run(
            cycles, traffic(rate, seed)
        )
        assert got.to_dict() == ref.to_dict()


@given(
    rate=st.floats(min_value=0.02, max_value=0.12),
    seed=st.integers(min_value=0, max_value=9999),
    depth=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=6, deadline=None)
def test_dateline_torus_matches(rate, seed, depth):
    routing = TurnTableRouting(TORUS, dateline_design(2), DATELINE)
    ref, vec = _stats_pair(
        TORUS, routing, DATELINE, cycles=250, rate=rate, seed=seed, depth=depth
    )
    assert ref == vec
    assert not ref["deadlocked"]


@given(
    groups=st.integers(min_value=3, max_value=4),
    rate=st.floats(min_value=0.02, max_value=0.15),
    depth=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=9999),
)
@settings(max_examples=6, deadline=None)
def test_dragonfly_minimal_matches(groups, rate, depth, seed):
    topology = Dragonfly(groups)
    routing = DragonflyRouting(topology)
    ref, vec = _stats_pair(
        topology, routing, routing.rule,
        cycles=250, rate=rate, seed=seed, depth=depth,
    )
    assert ref == vec
    assert not ref["deadlocked"]


@given(
    leaves=st.integers(min_value=2, max_value=3),
    spines=st.integers(min_value=1, max_value=2),
    rate=st.floats(min_value=0.02, max_value=0.15),
    seed=st.integers(min_value=0, max_value=9999),
)
@settings(max_examples=6, deadline=None)
def test_fattree_updown_matches(leaves, spines, rate, seed):
    topology = FatTree(leaves, spines, 1)
    routing = UpDownRouting(
        topology, levels={n: 2 - n[0] for n in topology.nodes}
    )
    ref, vec = _stats_pair(
        topology, routing, routing.rule,
        cycles=250, rate=rate, seed=seed, depth=3,
    )
    assert ref == vec
    assert not ref["deadlocked"]


def test_vector_backend_rejects_fault_injection():
    """Fault sweeps on a degraded dragonfly need the reference backend."""
    from repro.sim.faults import FaultSchedule

    topology = Dragonfly(3)
    routing = DragonflyRouting(topology)
    with pytest.raises(ConfigError):
        VectorSimulator(
            topology, routing, routing.rule,
            faults=FaultSchedule(()),
        )


def _ring_routing(topology):
    """A 4-wire cycle around the 2x2 mesh, via the oracle's CycleRouting."""
    from repro.core.channel import Channel
    from repro.fuzz.oracle import CycleRouting
    from repro.topology.base import Link
    from repro.topology.wires import Wire

    x, y = Channel(0, +1), Channel(1, +1)
    xn, yn = Channel(0, -1), Channel(1, -1)
    ring = (
        Wire(Link((0, 0), (1, 0), 0, +1), x),
        Wire(Link((1, 0), (1, 1), 1, +1), y),
        Wire(Link((1, 1), (0, 1), 0, -1), xn),
        Wire(Link((0, 1), (0, 0), 1, -1), yn),
    )
    return CycleRouting(topology, ring, (x, y, xn, yn), no_classes)


@given(depth=st.integers(min_value=1, max_value=3))
@settings(max_examples=3, deadline=None)
def test_crafted_2x2_ring_deadlock_parity(depth):
    """Worms parked along a real ring deadlock at the same declared cycle."""
    topology = Mesh(2, 2)
    length = depth + 2
    # Each worm targets two hops around the ring, as the oracle does.
    script = [
        ((0, 0), (1, 1), length),
        ((1, 0), (0, 1), length),
        ((1, 1), (0, 0), length),
        ((0, 1), (1, 0), length),
    ]
    dicts = []
    for cls in (NetworkSimulator, VectorSimulator):
        sim = cls(
            topology, _ring_routing(topology), no_classes,
            buffer_depth=depth, watchdog=50, seed=0,
        )
        dicts.append(sim.run(250, ScriptedTraffic({0: script})).to_dict())
    ref, vec = dicts
    assert ref == vec
    assert ref["deadlocked"]
    assert ref["deadlock_declared_at"] is not None
