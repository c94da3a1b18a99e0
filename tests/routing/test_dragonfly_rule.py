"""The dragonfly class rule has one definition: the named rule ``"dragonfly"``."""

from repro.routing import dragonfly_rule
from repro.routing.dragonfly import dragonfly_rule as defined
from repro.sim.specs import spec_token
from repro.topology.classes import NAMED_RULES


def test_dragonfly_rule_is_the_named_rule():
    assert dragonfly_rule is defined is NAMED_RULES["dragonfly"]
    assert spec_token("rule", dragonfly_rule) == "name:dragonfly"
