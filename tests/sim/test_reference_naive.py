"""The reference engine stays naive: it asks the routing function every time.

The vector engine skips allocation retries and memoises candidate sets;
the reference engine is the oracle that checks those tricks, so it must
not learn them.  On a blocking-heavy run every blocked head re-asks
``candidates()`` each cycle, and the call count is pinned.
"""

from repro.core import catalog
from repro.routing import TurnTableRouting
from repro.sim import NetworkSimulator, TrafficConfig, TrafficGenerator
from repro.sim.patterns import hotspot
from repro.topology import Mesh
from tests.sim.test_reference_loop import FrozenSimulator

#: ``candidates()`` calls of the saturated hotspot run below, measured on
#: the reference engine before its step loop was compiled.
PINNED_CALLS = 8056


class CountingRouting:
    """Forwards to a routing function, counting ``candidates()`` calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def candidates(self, cur, dst, in_channel):
        self.calls += 1
        return self.inner.candidates(cur, dst, in_channel)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _saturated_hotspot_calls(cls) -> tuple[int, int]:
    mesh = Mesh(4, 4)
    routing = CountingRouting(TurnTableRouting(mesh, catalog.design("negative-first")))
    sim = cls(mesh, routing, buffer_depth=2)
    traffic = TrafficGenerator(
        mesh,
        TrafficConfig(
            injection_rate=0.5,
            packet_length=8,
            pattern=hotspot([(0, 0)], 0.5),
            seed=0,
        ),
    )
    stats = sim.run(600, traffic)
    assert not stats.deadlocked
    return routing.calls, stats.packets_delivered


def test_every_allocation_attempt_asks_the_routing_function():
    calls, delivered = _saturated_hotspot_calls(NetworkSimulator)
    frozen_calls, frozen_delivered = _saturated_hotspot_calls(FrozenSimulator)
    assert (calls, delivered) == (frozen_calls, frozen_delivered)
    assert calls == PINNED_CALLS
    # Blocking-heavy: most calls are retries of heads that did not move.
    assert calls > 10 * delivered
