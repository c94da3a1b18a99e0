"""The graph kernels: cycle search, SCCs and cycle enumeration.

Every dependency graph in the package is a successor mapping (see
:class:`repro.cdg.graph.DependencyGraph`), and these three functions are
the only graph algorithms run on one.  Each reads nothing but
``iter(succ)`` and ``succ[node]``, so a plain dict works as is, and so
does a ``networkx.DiGraph`` (the tests' independent reference).

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

The sink-peeling existence oracle :mod:`repro.core.arbitrary`
deliberately uses none of them: that oracle must reach its verdict with
no shared code.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import TypeVar

__all__ = ["first_cycle", "simple_cycles", "strongly_connected_components"]

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


def strongly_connected_components(succ: Mapping[N, Iterable[N]]) -> Iterator[list[N]]:
    """The strongly connected components, each as soon as it is complete.

    An iterative Tarjan that tries roots in mapping order and successors
    in adjacency order, so components come out in networkx's order: each
    after every component it reaches (a reverse topological order).  A
    component lists its nodes in discovery order.

    >>> list(strongly_connected_components({"a": ["b"], "b": ["a", "c"], "c": []}))
    [['c'], ['a', 'b']]
    """
    index: dict[N, int] = {}
    low: dict[N, int] = {}  # only nodes not yet placed in a component
    unplaced: list[N] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        unplaced.append(root)
        path = [root]
        stack: list[Iterator[N]] = [iter(succ[root])]
        while stack:
            node = path[-1]
            for nxt in stack[-1]:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    unplaced.append(nxt)
                    path.append(nxt)
                    stack.append(iter(succ[nxt]))
                    break
                if nxt in low:
                    low[node] = min(low[node], index[nxt])
            else:
                stack.pop()
                path.pop()
                if low[node] == index[node]:
                    at = len(unplaced) - 1
                    while unplaced[at] != node:
                        at -= 1
                    component = unplaced[at:]
                    del unplaced[at:]
                    for member in component:
                        del low[member]
                    yield component
                else:
                    low[path[-1]] = min(low[path[-1]], low[node])


def simple_cycles(
    succ: Mapping[N, Iterable[N]], length_bound: int | None = None
) -> Iterator[tuple[N, ...]]:
    """Every simple cycle of at most ``length_bound`` nodes, each once.

    The search ``networkx.simple_cycles`` runs: self-loops first, then the
    bounded search of Gupta & Suzumura (arXiv:2105.10094) from one start
    node of each cyclic component, which is then deleted and the rest of
    its component searched again.  Without a bound a component's size
    bounds its cycles.  Each cycle lists its nodes, each depending on the
    next and the last on the first.

    >>> sorted(simple_cycles({"a": ["a", "b"], "b": ["a"]}))
    [('a',), ('a', 'b')]
    """
    if length_bound is not None and length_bound < 1:
        return
    yield from ((node,) for node in succ if node in succ[node])
    if length_bound == 1:
        return
    graph = {node: [nxt for nxt in succ[node] if nxt != node] for node in succ}
    components = [c for c in strongly_connected_components(graph) if len(c) > 1]
    while components:
        component = components.pop()
        start, members = component[0], set(component)
        sub = {node: [nxt for nxt in graph[node] if nxt in members] for node in component}
        yield from _bounded_cycles(sub, start, length_bound or len(component))
        sub = {node: [nxt for nxt in sub[node] if nxt != start] for node in component[1:]}
        components.extend(c for c in strongly_connected_components(sub) if len(c) > 1)


def _bounded_cycles(succ: Mapping[N, list[N]], start: N, bound: int) -> Iterator[tuple[N, ...]]:
    """The cycles through ``start`` of at most ``bound`` nodes.

    A node is locked at the path length it was last entered with; after a
    fruitless visit the lock stays, and it is relaxed when a cycle is
    found closer to the start.
    """
    path = [start]
    lock = {start: 0}
    blocked: dict[N, set[N]] = {}
    stack = [iter(succ[start])]
    closes = [bound]  # per path node: how near the start a cycle closed
    while stack:
        for nxt in stack[-1]:
            if nxt == start:
                yield tuple(path)
                closes[-1] = 1
            elif len(path) < lock.get(nxt, bound):
                path.append(nxt)
                closes.append(bound)
                lock[nxt] = len(path)
                stack.append(iter(succ[nxt]))
                break
        else:
            stack.pop()
            node = path.pop()
            steps = closes.pop()
            if closes:
                closes[-1] = min(closes[-1], steps)
            if steps < bound:
                relax = [(steps, node)]
                while relax:
                    steps, node = relax.pop()
                    if lock.get(node, bound) < bound - steps + 1:
                        lock[node] = bound - steps + 1
                        relax.extend(
                            (steps + 1, prev) for prev in blocked.get(node, ()) if prev not in path
                        )
            else:
                for nxt in succ[node]:
                    blocked.setdefault(nxt, set()).add(node)
