"""Network images: what every run on one network shares.

A simulation point's *image* is the part of its simulator that no run
ever changes: the routing instance and the vector kernel's two-level
next-hop memo.  The memo is filled on first touch, by a pure routing
query, so a point that finds it warm makes the same decisions as one
that finds it cold.  The points of a sweep share one image instead of
rebuilding it per point.

* :func:`spec_network` shares the routing a **factory** builds.  A
  factory with a stable :func:`~repro.sim.specs.spec_token` (registry
  names, catalog designs and arrow notation via
  :class:`~repro.sim.specs.EbdaDesignFactory`, registered and
  module-level factories) keys on content, ``(topology token, routing
  token, rule token)`` — the key the result cache already trusts.
  Content-equal topologies therefore share one routing instance: a
  pickled copy in a worker process, or a fresh ``Mesh(*shape)`` per
  trial.  The :data:`SPEC_IMAGE_SLOTS` most recently used are kept.
* :func:`memo_for` keys the next-hop memo on the routing instance,
  weakly: it lives exactly as long as the instance, so a dropped routing
  frees it, and a spec's memo lives as long as :func:`spec_network`
  keeps its routing.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

from repro.routing.base import RoutingFunction
from repro.sim.specs import RoutingFactory, spec_token
from repro.topology.base import Topology
from repro.topology.classes import ClassRule

__all__ = ["SPEC_IMAGE_SLOTS", "memo_for", "spec_network"]

#: Spec networks kept per process; the least recently used is evicted first.
SPEC_IMAGE_SLOTS = 8

#: Memos per routing instance, then per (rule, topology) identity.  Weak
#: in the routing; entries hold strong references to the rule and
#: topology they were built against (identity-checked on reuse — an
#: ``id()`` alone could be recycled after garbage collection).
_MEMOS: "weakref.WeakKeyDictionary[RoutingFunction, dict]" = weakref.WeakKeyDictionary()

#: Content key -> (the factory, its shared (topology, routing, rule));
#: most recently used last.
_SPEC_NETWORKS: "OrderedDict[tuple[str, str, str], tuple[RoutingFactory, tuple]]" = (
    OrderedDict()
)


def memo_for(
    topology: Topology, routing: RoutingFunction, rule: ClassRule, groups: int
) -> tuple[list[dict], list[dict]]:
    """The vector kernel's next-hop memo of ``routing`` on these objects.

    Two lists of ``groups`` dicts: candidates by destination, and by
    :meth:`~repro.routing.base.RoutingFunction.route_signature` (see
    :mod:`repro.sim.vector`).  Every simulator on the same routing
    instance, rule and topology objects gets the same lists.
    """
    shared = _MEMOS.setdefault(routing, {})
    entry = shared.get((id(rule), id(topology)))
    if entry is not None and entry[0] is rule and entry[1] is topology:
        return entry[2], entry[3]
    cand_by_in: list[dict] = [{} for _ in range(groups)]
    sig_by_in: list[dict] = [{} for _ in range(groups)]
    shared[(id(rule), id(topology))] = (rule, topology, cand_by_in, sig_by_in)
    return cand_by_in, sig_by_in


def spec_network(
    topology: Topology, factory: RoutingFactory, rule: ClassRule
) -> tuple[Topology, RoutingFunction, ClassRule]:
    """The shared ``(topology, routing, rule)`` for ``factory`` on ``topology``.

    When the factory and the rule have stable tokens, the triple is looked
    up by content and ``factory(topology)`` runs only on a miss; the
    topology and rule returned are those of the first caller, content-equal
    to the ones passed.  Otherwise the routing is built afresh.
    """
    routing_token = spec_token("routing", factory)
    rule_token = spec_token("rule", rule)
    if routing_token is None or rule_token is None:
        return topology, factory(topology), rule
    key = (topology.content_token, routing_token, rule_token)
    entry = _SPEC_NETWORKS.get(key)
    # A name re-registered to another factory keeps its token: the
    # factory comparison keeps the stale routing from being served.
    if entry is not None and entry[0] == factory:
        _SPEC_NETWORKS.move_to_end(key)
        return entry[1]
    network = (topology, factory(topology), rule)
    _SPEC_NETWORKS[key] = (factory, network)
    _SPEC_NETWORKS.move_to_end(key)
    while len(_SPEC_NETWORKS) > SPEC_IMAGE_SLOTS:
        _SPEC_NETWORKS.popitem(last=False)
    return network
