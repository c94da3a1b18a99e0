"""Trace-driven workloads: plain-data injection schedules for the simulator.

A :class:`WorkloadTrace` is a frozen, picklable *recipe* for a
deterministic injection schedule — the workload analogue of
:class:`~repro.sim.specs.EbdaDesignFactory`.  It stays topology-agnostic
(so one trace sweeps across meshes of any size and travels to worker
processes unchanged) and materialises per topology into a
:class:`TracedWorkload`, which speaks the same ``packets_for_cycle``
protocol as :class:`~repro.sim.traffic.TrafficGenerator` and
:class:`~repro.sim.traffic.ScriptedTraffic` and therefore plugs straight
into :meth:`repro.sim.network.NetworkSimulator.run`.

Built-in generator kinds (all seed-deterministic):

``all-reduce``
    Ring all-reduce: ``2 * (N - 1)`` phases per round (reduce-scatter then
    all-gather); in each phase every endpoint sends one packet to its ring
    successor.  Phases are ``interval`` cycles apart.
``shuffle``
    Map-reduce shuffle: in round ``r`` every endpoint sends to the node
    ``stride_r`` positions ahead in flattened order, with the strides a
    seeded permutation of ``1..N-1`` — ``rounds = N - 1`` covers the full
    all-to-all exchange.
``incast``
    Many-to-one: each round, a seeded ``fraction`` of endpoints all send
    to a single seeded sink — the classic buffer-crush scenario.
``bursty``
    Per-node ON/OFF process: seeded alternating ON windows (Bernoulli
    injections at ``rate`` to uniform destinations) and silent OFF
    windows, with window lengths jittered around ``burst_len``/``off_len``.
``replay``
    An explicit event list ``(cycle, src, dst, length)``, typically loaded
    from a JSONL trace file (:func:`load_workload` /
    :meth:`WorkloadTrace.save_jsonl`).

Named canonical instances live in :data:`NAMED_WORKLOADS`; a
:class:`~repro.sim.runner.RunConfig` accepts either a name or a trace in
its ``workload`` field, and :func:`repro.sim.specs.spec_token` gives every
trace a stable content-addressed token so traced runs stay cacheable
through :class:`~repro.sim.parallel.ResultCache`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.errors import EbdaError, SimulationError
from repro.routing.packet import Packet
from repro.sim.traffic import ScriptedTraffic
from repro.store import atomic_write, canonical_json, digest, read_jsonl
from repro.topology.base import Coord, Topology

__all__ = [
    "WORKLOAD_KINDS",
    "NAMED_WORKLOADS",
    "TracedWorkload",
    "WorkloadTrace",
    "load_workload",
    "resolve_workload",
    "workload_token",
]

#: Recognised workload kinds.
WORKLOAD_KINDS = ("all-reduce", "shuffle", "incast", "bursty", "replay")

#: One explicit injection: (cycle, src, dst, length).
TraceEvent = "tuple[int, Coord, Coord, int]"


@dataclass(frozen=True)
class WorkloadTrace:
    """A plain-data, topology-agnostic injection schedule recipe.

    Attributes
    ----------
    kind:
        One of :data:`WORKLOAD_KINDS`.
    seed:
        Seed for every random choice the generator makes; identical
        traces materialise identical schedules, always.
    packet_length:
        Flits per generated packet.
    start:
        First cycle at which the workload injects.
    rounds:
        Rounds for the phased generators (``all-reduce``, ``shuffle``,
        ``incast``); ``shuffle`` additionally caps rounds at ``N - 1``
        distinct strides.
    interval:
        Cycles between consecutive phases of the phased generators.
    rate:
        Injection probability per ON cycle (``bursty`` only).
    burst_len, off_len:
        Mean ON / OFF window lengths in cycles (``bursty`` only).
    fraction:
        Participating-endpoint fraction (``incast`` only).
    events:
        Explicit ``(cycle, src, dst, length)`` injections
        (``replay`` only).
    """

    kind: str
    seed: int = 0
    packet_length: int = 4
    start: int = 0
    rounds: int = 1
    interval: int = 4
    rate: float = 0.2
    burst_len: int = 16
    off_len: int = 48
    fraction: float = 1.0
    events: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise SimulationError(
                f"unknown workload kind {self.kind!r}"
                f" (expected one of {WORKLOAD_KINDS})"
            )
        if self.packet_length < 1:
            raise SimulationError("packet_length must be >= 1")
        if self.start < 0:
            raise SimulationError("start cycle cannot be negative")
        if self.rounds < 1:
            raise SimulationError("rounds must be >= 1")
        if self.interval < 1:
            raise SimulationError("interval must be >= 1")
        if not 0.0 <= self.rate <= 1.0:
            raise SimulationError("rate must be in [0, 1]")
        if self.burst_len < 1 or self.off_len < 1:
            raise SimulationError("burst_len and off_len must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise SimulationError("fraction must be in (0, 1]")
        if self.kind == "replay" and not self.events:
            raise SimulationError("replay workload needs at least one event")
        # Normalise events to hashable nested tuples (frozen dataclass
        # fields must be immutable for the trace to stay picklable+stable).
        normalised = tuple(
            (int(c), tuple(src), tuple(dst), int(length))
            for c, src, dst, length in self.events
        )
        object.__setattr__(self, "events", normalised)
        for cycle, src, dst, length in self.events:
            if cycle < 0:
                raise SimulationError(f"replay event at negative cycle {cycle}")
            if length < 1:
                raise SimulationError(f"replay event with empty packet: {length}")
            if src == dst:
                raise SimulationError(f"replay event is self-addressed: {src}")

    # -- identity --------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict` (exact round trip)."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "events":
                if not value:
                    continue  # omit the empty tuple for compactness
                value = [[c, list(src), list(dst), length] for c, src, dst, length in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadTrace":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SimulationError(
                f"unknown workload fields: {', '.join(sorted(unknown))}"
            )
        payload = dict(data)
        payload["events"] = tuple(
            (int(c), tuple(src), tuple(dst), int(length))
            for c, src, dst, length in payload.get("events", ())
        )
        return cls(**payload)

    def token(self) -> str:
        """A stable content-addressed cache token for this trace."""
        return f"trace:{self.kind}:{digest(canonical_json(self.to_dict()), 16)}"

    def describe(self) -> str:
        if self.kind == "replay":
            return f"replay({len(self.events)} events)"
        return f"{self.kind}(seed={self.seed}, rounds={self.rounds})"

    def with_seed(self, seed: int) -> "WorkloadTrace":
        """The same recipe under a different seed (campaign re-rolls)."""
        return replace(self, seed=seed)

    # -- JSONL persistence ------------------------------------------------------

    def save_jsonl(self, path: "str | Path") -> int:
        """Write the trace as strict JSON Lines; returns the line count.

        Line 1 is a ``workload-meta`` record with every recipe field;
        ``replay`` traces follow with one ``injection`` record per event,
        so the on-disk format doubles as a language-agnostic trace format.
        """
        meta = {"record": "workload-meta", **self.to_dict()}
        meta.pop("events", None)
        lines = [json.dumps(meta, sort_keys=True, allow_nan=False)]
        for cycle, src, dst, length in self.events:
            lines.append(
                json.dumps(
                    {
                        "record": "injection",
                        "cycle": cycle,
                        "src": list(src),
                        "dst": list(dst),
                        "length": length,
                    },
                    sort_keys=True,
                    allow_nan=False,
                )
            )
        atomic_write(path, "\n".join(lines) + "\n")
        return len(lines)

    # -- materialisation --------------------------------------------------------

    def materialize(self, topology: Topology, cycles: int) -> "TracedWorkload":
        """The concrete per-cycle schedule of this trace on ``topology``.

        ``cycles`` bounds open-ended generators (``bursty``); phased
        generators emit their full schedule even past it, which the run
        loop simply never queries — :meth:`TracedWorkload.last_cycle`
        tells a caller whether the run was long enough to play everything.
        """
        endpoints = list(topology.endpoints)
        if len(endpoints) < 2:
            raise SimulationError("a workload needs at least two endpoints")
        build = {
            "all-reduce": self._build_all_reduce,
            "shuffle": self._build_shuffle,
            "incast": self._build_incast,
            "bursty": self._build_bursty,
            "replay": self._build_replay,
        }[self.kind]
        schedule = build(endpoints, cycles)
        return TracedWorkload(self, topology, schedule)

    def _build_all_reduce(
        self, endpoints: list[Coord], cycles: int
    ) -> dict[int, list[tuple[Coord, Coord, int]]]:
        n = len(endpoints)
        schedule: dict[int, list[tuple[Coord, Coord, int]]] = {}
        phase = 0
        for _round in range(self.rounds):
            for _step in range(2 * (n - 1)):
                cycle = self.start + phase * self.interval
                entries = schedule.setdefault(cycle, [])
                for i, src in enumerate(endpoints):
                    entries.append((src, endpoints[(i + 1) % n], self.packet_length))
                phase += 1
        return schedule

    def _build_shuffle(
        self, endpoints: list[Coord], cycles: int
    ) -> dict[int, list[tuple[Coord, Coord, int]]]:
        n = len(endpoints)
        rng = random.Random(f"shuffle:{self.seed}")
        strides = list(range(1, n))
        rng.shuffle(strides)
        schedule: dict[int, list[tuple[Coord, Coord, int]]] = {}
        for r in range(min(self.rounds, len(strides))):
            stride = strides[r]
            cycle = self.start + r * self.interval
            entries = schedule.setdefault(cycle, [])
            for i, src in enumerate(endpoints):
                entries.append((src, endpoints[(i + stride) % n], self.packet_length))
        return schedule

    def _build_incast(
        self, endpoints: list[Coord], cycles: int
    ) -> dict[int, list[tuple[Coord, Coord, int]]]:
        rng = random.Random(f"incast:{self.seed}")
        sink = endpoints[rng.randrange(len(endpoints))]
        senders = [e for e in endpoints if e != sink]
        k = max(1, round(self.fraction * len(senders)))
        schedule: dict[int, list[tuple[Coord, Coord, int]]] = {}
        for r in range(self.rounds):
            cycle = self.start + r * self.interval
            chosen = senders if k == len(senders) else rng.sample(senders, k)
            schedule.setdefault(cycle, []).extend(
                (src, sink, self.packet_length) for src in chosen
            )
        return schedule

    def _build_bursty(
        self, endpoints: list[Coord], cycles: int
    ) -> dict[int, list[tuple[Coord, Coord, int]]]:
        schedule: dict[int, list[tuple[Coord, Coord, int]]] = {}
        for i, src in enumerate(endpoints):
            rng = random.Random(f"bursty:{self.seed}:{i}")
            cycle = self.start
            on = rng.random() < 0.5  # stagger which phase each node starts in
            while cycle < cycles:
                mean = self.burst_len if on else self.off_len
                span = max(1, rng.randrange(max(1, mean // 2), 2 * mean))
                if on:
                    for c in range(cycle, min(cycle + span, cycles)):
                        if rng.random() >= self.rate:
                            continue
                        dst = endpoints[rng.randrange(len(endpoints))]
                        if dst == src:
                            continue
                        schedule.setdefault(c, []).append(
                            (src, dst, self.packet_length)
                        )
                cycle += span
                on = not on
        # Within a cycle, injections ordered by source for determinism
        # (the per-node loops above interleave arbitrarily otherwise).
        for entries in schedule.values():
            entries.sort()
        return schedule

    def _build_replay(
        self, endpoints: list[Coord], cycles: int
    ) -> dict[int, list[tuple[Coord, Coord, int]]]:
        schedule: dict[int, list[tuple[Coord, Coord, int]]] = {}
        for cycle, src, dst, length in self.events:
            schedule.setdefault(cycle + self.start, []).append((src, dst, length))
        return schedule


class TracedWorkload:
    """A :class:`WorkloadTrace` materialised on a concrete topology.

    Speaks the simulator's traffic protocol (``packets_for_cycle``) with
    sequential pids, validating every destination against the topology;
    the packets come from a :class:`~repro.sim.traffic.ScriptedTraffic`
    over :attr:`schedule`.
    """

    def __init__(
        self,
        trace: WorkloadTrace,
        topology: Topology,
        schedule: dict[int, list[tuple[Coord, Coord, int]]],
    ) -> None:
        self.trace = trace
        self.topology = topology
        self._script = ScriptedTraffic(schedule)
        self.schedule = self._script.script
        node_set = topology.node_set
        for entries in schedule.values():
            for src, dst, _length in entries:
                if src not in node_set or dst not in node_set:
                    raise SimulationError(
                        f"workload {trace.describe()} names a node outside"
                        f" {topology!r}: {src if src not in node_set else dst}"
                    )

    @property
    def total_packets(self) -> int:
        return sum(len(entries) for entries in self.schedule.values())

    @property
    def last_cycle(self) -> int:
        """Cycle of the final scheduled injection (-1 when empty)."""
        return max(self.schedule, default=-1)

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        return self._script.packets_for_cycle(cycle)

    def as_replay(self) -> WorkloadTrace:
        """Flatten this concrete schedule into a ``replay`` trace.

        The result is topology-bound (its events name concrete nodes) but
        self-contained: it replays identically with no generator logic.
        """
        events = [
            (cycle, src, dst, length)
            for cycle in sorted(self.schedule)
            for src, dst, length in self.schedule[cycle]
        ]
        return WorkloadTrace(kind="replay", seed=self.trace.seed, events=tuple(events))

    def __repr__(self) -> str:
        return (
            f"TracedWorkload({self.trace.describe()}, {self.total_packets} packets"
            f" over cycles {min(self.schedule, default=0)}..{self.last_cycle})"
        )


def load_workload(path: "str | Path") -> WorkloadTrace:
    """Load a trace saved by :meth:`WorkloadTrace.save_jsonl` (strict JSON).

    The inverse of ``save_jsonl``: ``load_workload(save(t)) == t``.
    """
    meta: dict | None = None
    events: list[tuple] = []
    for index, record in enumerate(read_jsonl(path), 1):
        kind = record.pop("record", None)
        if kind == "workload-meta":
            if meta is not None:
                raise EbdaError(f"{path}: record {index} is a duplicate workload-meta")
            meta = record
        elif kind == "injection":
            events.append(
                (
                    int(record["cycle"]),
                    tuple(record["src"]),
                    tuple(record["dst"]),
                    int(record["length"]),
                )
            )
        else:
            raise EbdaError(f"{path}: record {index} has unknown record kind {kind!r}")
    if meta is None:
        raise EbdaError(f"{path}: missing workload-meta record")
    if events:
        meta["events"] = [
            [c, list(src), list(dst), length] for c, src, dst, length in events
        ]
    try:
        return WorkloadTrace.from_dict(meta)
    except SimulationError as exc:
        raise EbdaError(f"{path}: invalid workload: {exc}") from exc


#: Canonical named workload instances — the chaos campaign's default mix,
#: and the names ``RunConfig(workload=...)`` resolves.
NAMED_WORKLOADS: dict[str, WorkloadTrace] = {
    "all-reduce": WorkloadTrace(kind="all-reduce", rounds=1, interval=6),
    "shuffle": WorkloadTrace(kind="shuffle", rounds=8, interval=10),
    "incast": WorkloadTrace(kind="incast", rounds=4, interval=24, fraction=0.75),
    "bursty": WorkloadTrace(kind="bursty", rate=0.15, burst_len=16, off_len=48),
}


def resolve_workload(spec: "WorkloadTrace | str") -> WorkloadTrace:
    """A workload name or trace -> the trace."""
    if isinstance(spec, WorkloadTrace):
        return spec
    try:
        return NAMED_WORKLOADS[spec]
    except (KeyError, TypeError):
        known = ", ".join(sorted(NAMED_WORKLOADS))
        raise EbdaError(
            f"unknown workload {spec!r}; known workloads: {known}"
        ) from None


def workload_token(spec: object) -> "str | None":
    """Cache token for a workload spec (see :func:`repro.sim.specs.spec_token`)."""
    if spec is None:
        return "none"
    if isinstance(spec, str):
        return f"name:{spec}"
    if isinstance(spec, WorkloadTrace):
        for name, trace in NAMED_WORKLOADS.items():
            if trace == spec:
                return f"name:{name}"
        return spec.token()
    return None
