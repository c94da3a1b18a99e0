"""Network images: one routing instance and next-hop memo per network.

Sharing an image must never change a result: a warm memo makes the same
decisions as a cold one, in whatever order the points run.  Specs share
by content, routing instances by identity (weakly), and the spec
networks kept are bounded.
"""

import gc
import weakref
from dataclasses import replace

from repro.routing.deterministic import xy_routing
from repro.sim import RunConfig, run_point
from repro.sim import image as image_module
from repro.sim import specs
from repro.sim.image import SPEC_IMAGE_SLOTS, spec_network
from repro.sim.specs import resolve_routing_factory
from repro.sim.vector import VectorSimulator
from repro.topology import Mesh
from repro.topology.classes import column_parity, no_classes, rule_for_design
from repro.topology.irregular import FaultyMesh

from tests.sim.test_vector import CATALOG_POINTS


def _config(rate: float) -> RunConfig:
    return RunConfig(cycles=300, injection_rate=rate, seed=3, backend="vector")


def _network(topology, spec, rule=no_classes):
    return spec_network(topology, resolve_routing_factory(spec), rule)


class TestOrderIndependence:
    def test_shared_images_in_reverse_order_match_fresh_ones(self):
        fresh = {}
        for name, shape, rate in CATALOG_POINTS:
            mesh = Mesh(*shape)
            # A routing instance of its own: a cold memo.
            routing = resolve_routing_factory(name)(mesh)
            fresh[name] = run_point(
                mesh, routing, _config(rate), rule_for_design(name)
            ).stats.to_dict()
        for name, shape, rate in reversed(CATALOG_POINTS):
            rule = rule_for_design(name)
            # Other traffic warms the shared image first.
            run_point(Mesh(*shape), name, replace(_config(rate), seed=11), rule)
            shared = run_point(Mesh(*shape), name, _config(rate), rule).stats.to_dict()
            assert shared == fresh[name], name


class TestContentKeying:
    def test_equal_meshes_share_one_routing(self):
        first = _network(Mesh(10, 10), "west-first-vcs")
        second = _network(Mesh(10, 10), "west-first-vcs")
        assert second == first

    def test_rule_and_faulty_topology_get_their_own_routing(self):
        base = _network(Mesh(10, 10), "west-first-vcs")
        other_rule = _network(Mesh(10, 10), "west-first-vcs", column_parity)
        faulty = _network(
            FaultyMesh(Mesh(10, 10), failed=[((4, 4), (5, 4))]), "west-first-vcs"
        )
        routings = {id(base[1]), id(other_rule[1]), id(faulty[1])}
        assert len(routings) == 3

    def test_untokenised_factory_is_never_shared(self):
        def factory(topology):  # a closure: no stable spec token
            return xy_routing(topology)

        mesh = Mesh(3, 3)
        assert spec_network(mesh, factory, no_classes)[1] is not (
            spec_network(mesh, factory, no_classes)[1]
        )

    def test_simulators_on_a_network_share_its_memo(self):
        network = _network(Mesh(4, 4), "negative-first")
        sims = [VectorSimulator(*network) for _ in range(2)]
        assert sims[0]._cand_by_in is sims[1]._cand_by_in
        assert sims[0]._sig_by_in is sims[1]._sig_by_in
        assert sims[0]._owner is not sims[1]._owner  # per-run state stays apart


class TestNoRetention:
    def test_dropped_routing_instance_is_collected(self):
        mesh = Mesh(4, 4)
        routing = xy_routing(mesh)
        ref = weakref.ref(routing)
        run_point(mesh, routing, _config(0.05))
        assert routing in image_module._MEMOS
        del routing
        gc.collect()
        assert ref() is None


class TestBound:
    def test_one_key_past_the_bound_evicts_the_oldest(self):
        meshes = [Mesh(2, 2 + i) for i in range(SPEC_IMAGE_SLOTS + 1)]
        networks = [_network(mesh, "xy") for mesh in meshes]
        assert len(image_module._SPEC_NETWORKS) == SPEC_IMAGE_SLOTS
        # meshes[1] is now the oldest kept; meshes[0] was evicted.
        assert _network(Mesh(2, 3), "xy")[1] is networks[1][1]
        assert _network(Mesh(2, 2), "xy")[1] is not networks[0][1]

    def test_reregistered_name_is_not_served_stale(self, monkeypatch):
        factories = specs.NAMED_ROUTING_FACTORIES
        mesh = Mesh(3, 3)

        def first(topology):
            return factories["xy"](topology)

        def second(topology):
            return factories["negative-first"](topology)

        monkeypatch.setitem(factories, "image-test-routing", first)
        stale = _network(mesh, "image-test-routing")
        assert _network(mesh, "image-test-routing") == stale
        monkeypatch.setitem(factories, "image-test-routing", second)
        fresh = _network(mesh, "image-test-routing")
        assert fresh[1].name != stale[1].name
