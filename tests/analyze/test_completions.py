"""DesignUnit.completions agrees with a breadth-first search of channel walks.

The lint rules EBDA008/EBDA010 read the per-design completion table; the
BFS below is the direct statement of what the table must hold, kept here
as its reference.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.analyze.unit import DesignUnit, Direction, default_lint_unit, requirement_sets
from repro.core.catalog import NAMED_DESIGNS
from repro.core.channel import Channel
from repro.fuzz.design import FAMILIES
from repro.fuzz.generator import DesignGenerator

#: Generated designs per family (mutants included, at the default rate).
PER_FAMILY = 100


def route_satisfiable(
    unit: DesignUnit, need: frozenset[Direction], start: Channel | None
) -> bool:
    """Can some turn-closed channel walk serve every direction in ``need``?

    BFS over (remaining requirements, current channel) states.  A move
    either consumes a required direction by hopping onto a channel that
    provides it (injection and straight-through are free, anything else
    needs an allowed turn), or switches between same-direction channels
    by an allowed I-turn.
    """
    state = (need, start)
    seen = {state}
    queue = deque([state])
    while queue:
        remaining, cur = queue.popleft()
        if not remaining:
            return True
        nxt = []
        for d in remaining:
            for ch in unit.channels_of_direction(*d):
                if unit.step_allowed(cur, ch):
                    nxt.append((remaining - {d}, ch))
        if cur is not None:
            for ch in unit.channels_of_direction(cur.dim, cur.sign):
                if ch != cur and unit.turnset.allows(cur, ch):
                    nxt.append((remaining, ch))
        for s in nxt:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return False


def assert_table_matches_bfs(unit: DesignUnit) -> None:
    table = unit.completions
    assert set(table) == {frozenset(), *requirement_sets(unit.dims)}, unit.name
    starts: tuple[Channel | None, ...] = (None, *unit.channels)
    for need, winners in table.items():
        for start in starts:
            assert (start in winners) == route_satisfiable(unit, need, start), (
                unit.name,
                sorted(need),
                start,
            )


@pytest.mark.parametrize("name", sorted(NAMED_DESIGNS))
def test_catalog_designs(name):
    unit, _ignore = default_lint_unit(name)
    assert_table_matches_bfs(unit)


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_designs(family):
    designs = DesignGenerator(seed=3, families=(family,)).designs(PER_FAMILY)
    assert any(d.label.startswith("mutant") for d in designs), family
    for design in designs:
        seq, turnset = design.compile()
        unit = DesignUnit(sequence=seq, turnset=turnset, name=design.describe())
        assert_table_matches_bfs(unit)


def test_table_belongs_to_its_unit():
    # A cached_property: computed once per unit, never shared across units.
    unit, _ = default_lint_unit("west-first")
    assert unit.completions is unit.completions
    twin, _ = default_lint_unit("west-first")
    assert twin.completions is not unit.completions
    assert twin.completions == unit.completions
