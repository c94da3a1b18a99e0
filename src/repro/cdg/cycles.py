"""Linear-time cycle search over a successor mapping.

:func:`first_cycle` is the one cycle-search kernel behind
:func:`repro.cdg.verify.verdict_for`, the simulator's wait-for check
(:func:`repro.sim.deadlock.waitfor_cycle`) and the wrap-ring closure
analysis (:func:`repro.analyze.rings.unbroken_rings`).  It is an
iterative three-colour depth-first search: every node is entered at most
once and every adjacency list is opened at most once, so an acyclic
graph costs O(V + E) — one acyclicity pass, as the paper's scalability
argument assumes.

The witness is the one ``networkx.find_cycle(g, orientation="original")``
reports, rotated the same way: start nodes are tried in mapping order,
successors in adjacency order, and the cycle starts at the node the
closing back edge points to.  ``find_cycle`` walks the same DFS but
re-walks the subtrees of nodes it has already finished, which can hold
no back edge; skipping them changes the cost, not the answer.

The module takes a plain mapping (``DiGraph._succ`` works as is) and
imports nothing, so it stays usable where networkx is not.  The
sink-peeling existence oracle :mod:`repro.core.arbitrary` deliberately
does not use it: that oracle must reach its verdict with no shared code.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import TypeVar

__all__ = ["first_cycle"]

N = TypeVar("N", bound=Hashable)

_ON_PATH = 1
_DONE = 2


def first_cycle(succ: Mapping[N, Iterable[N]]) -> tuple[N, ...] | None:
    """The first dependency cycle of a digraph, or None when it is acyclic.

    ``succ`` maps every node to its successors (every successor must
    itself be a key).  The result lists the cycle's nodes, each
    depending on the next and the last on the first.

    >>> first_cycle({"a": ["b"], "b": ["c"], "c": ["b"]})
    ('b', 'c')
    >>> first_cycle({"a": ["b"], "b": []}) is None
    True
    """
    state: dict[N, int] = {}
    for root in succ:
        if root in state:
            continue
        state[root] = _ON_PATH
        path = [root]
        stack: list[Iterator[N]] = [iter(succ[root])]
        while stack:
            for nxt in stack[-1]:
                seen = state.get(nxt)
                if seen is None:
                    state[nxt] = _ON_PATH
                    path.append(nxt)
                    stack.append(iter(succ[nxt]))
                    break
                if seen == _ON_PATH:
                    return tuple(path[path.index(nxt):])
            else:
                state[path.pop()] = _DONE
                stack.pop()
    return None
