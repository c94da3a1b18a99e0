"""Synthetic traffic patterns.

Standard NoC evaluation patterns: each maps a source node to a destination
(deterministic permutations) or samples one (random patterns).  Patterns
operate on coordinates normalised to the topology shape.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Sequence

from repro.errors import SimulationError
from repro.topology.base import Coord

#: A pattern maps (source, topology nodes, rng) -> destination (which may
#: equal the source; the generator skips self-addressed packets).
TrafficPattern = Callable[[Coord, Sequence[Coord], random.Random], Coord]


def uniform(src: Coord, nodes: Sequence[Coord], rng: random.Random) -> Coord:
    """Uniform random destination."""
    return nodes[rng.randrange(len(nodes))]


def _shape_of(nodes: Sequence[Coord]) -> tuple[int, ...]:
    """The grid shape the nodes span.

    Every packet of a shape-aware pattern asks for it, so the shape is
    computed once per node tuple (``Topology.nodes`` is one tuple per
    network) instead of per packet.
    """
    return _grid_shape(nodes if type(nodes) is tuple else tuple(nodes))


@lru_cache(maxsize=64)
def _grid_shape(nodes: tuple[Coord, ...]) -> tuple[int, ...]:
    dims = len(nodes[0])
    return tuple(max(n[d] for n in nodes) + 1 for d in range(dims))


def transpose(src: Coord, nodes: Sequence[Coord], rng: random.Random) -> Coord:
    """Matrix transpose: (x, y, ...) -> reversed coordinates.

    The classic adversarial pattern for XY routing in square meshes.
    """
    return tuple(reversed(src))


def bit_complement(src: Coord, nodes: Sequence[Coord], rng: random.Random) -> Coord:
    """Each coordinate reflected: x -> k-1-x."""
    shape = _shape_of(nodes)
    return tuple(k - 1 - c for c, k in zip(src, shape))


def bit_reverse(src: Coord, nodes: Sequence[Coord], rng: random.Random) -> Coord:
    """Bit-reversal of the flattened node index (power-of-two networks)."""
    shape = _shape_of(nodes)
    bits = 0
    for k in shape:
        if k & (k - 1):
            raise SimulationError("bit-reverse needs power-of-two dimensions")
        bits += k.bit_length() - 1
    index = 0
    for c, k in zip(src, shape):
        index = index * k + c
    rev = int(format(index, f"0{bits}b")[::-1], 2)
    coord = []
    for k in reversed(shape):
        coord.append(rev % k)
        rev //= k
    return tuple(reversed(coord))


def shuffle(src: Coord, nodes: Sequence[Coord], rng: random.Random) -> Coord:
    """Perfect shuffle on the flattened index (rotate bits left by one)."""
    shape = _shape_of(nodes)
    bits = 0
    for k in shape:
        if k & (k - 1):
            raise SimulationError("shuffle needs power-of-two dimensions")
        bits += k.bit_length() - 1
    index = 0
    for c, k in zip(src, shape):
        index = index * k + c
    shifted = ((index << 1) | (index >> (bits - 1))) & ((1 << bits) - 1)
    coord = []
    for k in reversed(shape):
        coord.append(shifted % k)
        shifted //= k
    return tuple(reversed(coord))


def tornado(src: Coord, nodes: Sequence[Coord], rng: random.Random) -> Coord:
    """Tornado: halfway around each dimension (stressful on tori)."""
    shape = _shape_of(nodes)
    return tuple((c + (k - 1) // 2) % k for c, k in zip(src, shape))


def hotspot(
    targets: Sequence[Coord], fraction: float = 0.2
) -> TrafficPattern:
    """Hotspot pattern factory: ``fraction`` of traffic goes to ``targets``.

    The rest is uniform random.
    """
    if not 0.0 <= fraction <= 1.0:
        raise SimulationError("hotspot fraction must be in [0, 1]")
    targets = tuple(targets)

    def pattern(src: Coord, nodes: Sequence[Coord], rng: random.Random) -> Coord:
        if targets and rng.random() < fraction:
            return targets[rng.randrange(len(targets))]
        return nodes[rng.randrange(len(nodes))]

    return pattern


def neighbor(src: Coord, nodes: Sequence[Coord], rng: random.Random) -> Coord:
    """Nearest neighbour: +1 along dimension 0 (wrapping)."""
    shape = _shape_of(nodes)
    return ((src[0] + 1) % shape[0],) + tuple(src[1:])


def rotate90(src: Coord, nodes: Sequence[Coord], rng: random.Random) -> Coord:
    """Quarter-turn rotation about the mesh centre: (x, y) -> (y, k-1-x).

    An adversarial cyclic-demand pattern for deadlock demonstrations: the
    four quadrants send into each other in a circulating fashion, so all
    four 90-degree turn directions are exercised simultaneously — the
    canonical scenario in which unrestricted adaptive routing deadlocks.
    Requires a square 2D shape (extra dimensions pass through).
    """
    shape = _shape_of(nodes)
    if len(shape) < 2 or shape[0] != shape[1]:
        raise SimulationError("rotate90 needs a square 2D network")
    k = shape[0]
    x, y = src[0], src[1]
    return (y, k - 1 - x) + tuple(src[2:])


NAMED_PATTERNS: dict[str, TrafficPattern] = {
    "uniform": uniform,
    "transpose": transpose,
    "bit-complement": bit_complement,
    "bit-reverse": bit_reverse,
    "shuffle": shuffle,
    "tornado": tornado,
    "neighbor": neighbor,
    "rotate90": rotate90,
}
