"""Traffic generation: Bernoulli injection processes over a pattern."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError
from repro.routing.packet import Packet
from repro.sim.patterns import TrafficPattern, uniform
from repro.topology.base import Coord, Topology


@dataclass
class TrafficConfig:
    """Injection process parameters.

    Attributes
    ----------
    injection_rate:
        Probability a node creates a packet each cycle (flit-normalised
        rates are ``injection_rate * packet_length`` flits/node/cycle).
    packet_length:
        Flits per packet.
    pattern:
        Destination pattern (default uniform random).
    seed:
        RNG seed; every simulation is reproducible given the seed.
    """

    injection_rate: float = 0.05
    packet_length: int = 4
    pattern: TrafficPattern = uniform
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.injection_rate <= 1.0:
            raise SimulationError("injection_rate must be in [0, 1]")
        if self.packet_length < 1:
            raise SimulationError("packet_length must be >= 1")


class TrafficGenerator:
    """Creates packets cycle by cycle according to a :class:`TrafficConfig`."""

    def __init__(self, topology: Topology, config: TrafficConfig) -> None:
        self.topology = topology
        self.config = config
        self.rng = random.Random(config.seed)
        self._next_pid = 0

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        """Packets created in this cycle (possibly none).

        Self-addressed destinations are re-rolled for random patterns and
        skipped for deterministic ones (a node that maps to itself simply
        stays silent, as is conventional for permutation patterns).
        """
        created: list[Packet] = []
        endpoints = self.topology.endpoints
        # Locals hoisted out of the per-endpoint loop: this runs every
        # cycle for every node and is shared overhead for both backends.
        roll = self.rng.random
        rate = self.config.injection_rate
        pattern = self.config.pattern
        rng = self.rng
        node_set = self.topology.node_set
        length = self.config.packet_length
        pid = self._next_pid
        for node in endpoints:
            if roll() >= rate:
                continue
            dst = pattern(node, endpoints, rng)
            if dst == node:
                continue
            if dst not in node_set:
                raise SimulationError(f"pattern produced unknown node {dst}")
            created.append(
                Packet(pid=pid, src=node, dst=dst, length=length, created=cycle)
            )
            pid += 1
        self._next_pid = pid
        return created


class ScriptedTraffic:
    """Deterministic packet script for unit tests and deadlock setups.

    ``script`` maps a cycle to the (src, dst, length) packets created then.
    The script round-trips through :meth:`to_dict`/:meth:`from_dict`
    (mirroring :class:`~repro.sim.stats.SimStats`), so a scripted scenario
    can be stored as plain JSON and replayed exactly — pids included,
    since they are assigned in script order.
    """

    def __init__(self, script: dict[int, Sequence[tuple[Coord, Coord, int]]]) -> None:
        self.script = {
            int(cycle): [
                (tuple(src), tuple(dst), int(length)) for src, dst, length in entries
            ]
            for cycle, entries in script.items()
        }
        self._next_pid = 0

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        created: list[Packet] = []
        for src, dst, length in self.script.get(cycle, ()):
            created.append(
                Packet(pid=self._next_pid, src=src, dst=dst, length=length, created=cycle)
            )
            self._next_pid += 1
        return created

    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict` (exact round trip).

        Cycles serialize as string keys (JSON objects have no int keys),
        in sorted order so equal scripts always produce equal dicts.
        """
        return {
            "script": {
                str(cycle): [
                    [list(src), list(dst), length]
                    for src, dst, length in self.script[cycle]
                ]
                for cycle in sorted(self.script)
            }
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptedTraffic":
        """Rebuild a script from :meth:`to_dict` output (JSON round-trip safe)."""
        try:
            script = data["script"]
        except (KeyError, TypeError):
            raise SimulationError(
                "scripted-traffic dict needs a 'script' mapping"
            ) from None
        return cls(
            {
                int(cycle): [
                    (tuple(src), tuple(dst), int(length))
                    for src, dst, length in entries
                ]
                for cycle, entries in script.items()
            }
        )
