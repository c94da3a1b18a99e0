"""Network telemetry: sampled metrics, structured export, deadlock forensics.

The simulator's aggregate :class:`~repro.sim.stats.SimStats` says *how* a
run went; this module shows *where* and *when*.  A :class:`MetricsCollector`
attached to a :class:`~repro.sim.network.NetworkSimulator` (``metrics=``)
is fed by three cheap cycle-loop hooks — all of them no-ops when no
collector is attached — and samples, every ``sample_every`` cycles:

* per-channel (wire) link utilization, as windowed :class:`TimeSeries`
  ring buffers plus cumulative flit/occupancy counters;
* per-router buffer occupancy and VC-allocation stall counts;
* global throughput, buffered flits, injection-queue depth and
  packets in flight.

Channels roll up by **EbDa partition** (:meth:`MetricsCollector.heatmap`),
so congestion can be read against the theory's partition structure: a
saturated ``PB`` with an idle ``PA`` is visible at a glance.

When the watchdog declares deadlock the collector freezes a
:class:`DeadlockForensics` report: the cyclic-wait witness (packet ids
and the channels each participant holds), every blocked packet's
description and trace tail, and the buffer occupancy at declaration time.

Everything exports as JSON Lines (:meth:`MetricsCollector.to_jsonl`; the
schema is documented in ``docs/OBSERVABILITY.md``) or CSV, and the
``repro inspect`` CLI renders summaries, heatmaps and forensics back out
of an exported file via :func:`load_metrics` / :func:`render_summary` /
:func:`render_heatmap` / :func:`render_forensics`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import EbdaError, SimulationError
from repro.store import atomic_write, read_jsonl, write_jsonl
from repro.topology.wires import Wire

if TYPE_CHECKING:
    from repro.sim.network import NetworkSimulator
    from repro.sim.stats import SimStats
    from repro.topology.base import Coord

__all__ = [
    "METRICS_SCHEMA",
    "DeadlockForensics",
    "MetricsCollector",
    "TimeSeries",
    "load_metrics",
    "render_forensics",
    "render_heatmap",
    "render_summary",
]

#: Bump when the JSONL record layout changes incompatibly.
METRICS_SCHEMA = 1

#: Utilization shade ramp for text heatmaps (cold -> hot).
_SHADES = " .:-=+*#%@"


def _finite(value: float) -> float | None:
    """NaN/inf -> None so every exported record is strict JSON."""
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


class TimeSeries:
    """A fixed-capacity ring buffer of ``(cycle, value)`` samples.

    Appends past ``capacity`` evict the oldest sample and count it in
    :attr:`dropped`, so consumers can tell a short history from a
    truncated one.
    """

    __slots__ = ("name", "capacity", "_cycles", "_values", "dropped")

    def __init__(self, name: str, capacity: int = 512) -> None:
        if capacity < 1:
            raise SimulationError("TimeSeries capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._cycles: deque[int] = deque(maxlen=capacity)
        self._values: deque[float] = deque(maxlen=capacity)
        #: Samples evicted to honour ``capacity``.
        self.dropped = 0

    def append(self, cycle: int, value: float) -> None:
        if len(self._cycles) == self.capacity:
            self.dropped += 1
        self._cycles.append(cycle)
        self._values.append(value)

    @property
    def cycles(self) -> list[int]:
        return list(self._cycles)

    @property
    def values(self) -> list[float]:
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return iter(zip(self._cycles, self._values))

    def last(self) -> float | None:
        return self._values[-1] if self._values else None

    def mean(self) -> float | None:
        if not self._values:
            return None
        return sum(self._values) / len(self._values)

    def max(self) -> float | None:
        return max(self._values) if self._values else None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cycles": self.cycles,
            "values": [(_finite(v) if isinstance(v, float) else v) for v in self._values],
            "dropped": self.dropped,
        }

    def __repr__(self) -> str:
        return f"TimeSeries({self.name}, {len(self)} samples)"


@dataclass
class _ChannelCounters:
    """Cumulative per-wire accounting (updated at each sample)."""

    flits: int = 0
    occupancy_sum: int = 0
    occupancy_peak: int = 0
    samples: int = 0

    @property
    def avg_occupancy(self) -> float:
        return self.occupancy_sum / self.samples if self.samples else 0.0


@dataclass
class _RouterCounters:
    """Cumulative per-router accounting (updated at each sample)."""

    buffered_sum: int = 0
    buffered_peak: int = 0
    samples: int = 0
    vc_stalls: int = 0

    @property
    def avg_buffered(self) -> float:
        return self.buffered_sum / self.samples if self.samples else 0.0


@dataclass
class BlockedPacket:
    """One participant of a deadlock's cyclic wait, at declaration time."""

    pid: int
    src: "Coord"
    dst: "Coord"
    length: int
    age: int
    #: Wires the packet owns or occupies (the resources the cycle needs).
    holds: list[str]
    #: The next participant in the cyclic wait this packet is blocked on.
    waits_on: int
    #: Last trace events for this packet (empty without a tracer).
    trace_tail: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "pid": self.pid,
            "src": list(self.src),
            "dst": list(self.dst),
            "length": self.length,
            "age": self.age,
            "holds": self.holds,
            "waits_on": self.waits_on,
            "trace_tail": self.trace_tail,
        }


@dataclass
class DeadlockForensics:
    """Snapshot of a watchdog-declared deadlock, for post-mortem analysis."""

    declared_at: int
    #: Packet ids forming the cyclic wait (witness order).
    wait_cycle: list[int]
    #: ``witness_channels[i]`` = wires ``wait_cycle[i]`` holds.
    witness_channels: list[list[str]]
    blocked: list[BlockedPacket]
    #: wire -> buffered flits at declaration (non-empty buffers only).
    buffer_occupancy: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "record": "forensics",
            "declared_at": self.declared_at,
            "wait_cycle": self.wait_cycle,
            "witness_channels": self.witness_channels,
            "blocked": [b.to_dict() for b in self.blocked],
            "buffer_occupancy": self.buffer_occupancy,
        }

    def render(self) -> str:
        return render_forensics([self.to_dict()])

    @classmethod
    def capture(cls, sim: "NetworkSimulator", trace_tail: int = 10) -> "DeadlockForensics":
        """Snapshot the deadlock ``sim`` declared on its last step (``run``
        stops there, so a stopped simulator gives the watchdog's snapshot),
        keeping ``trace_tail`` trace events per blocked packet."""
        from repro.sim.deadlock import cycle_witness, held_wires

        witness = cycle_witness(sim)
        pids: list[int] = []
        held: list[list[str]] = []
        if witness is not None:
            pids = list(witness[0])
            held = [[str(w) for w in wires] for wires in witness[1]]
        blocked: list[BlockedPacket] = []
        for i, pid in enumerate(pids):
            packet = sim._find_packet(pid)
            if packet is None:  # pragma: no cover - witness pids are in flight
                continue
            tail: list[str] = []
            if sim.tracer is not None:
                tail = [str(e) for e in sim.tracer.for_packet(pid)[-trace_tail:]]
            blocked.append(
                BlockedPacket(
                    pid=pid,
                    src=packet.src,
                    dst=packet.dst,
                    length=packet.length,
                    age=sim.cycle - packet.created,
                    holds=[str(w) for w in held_wires(sim, pid)],
                    waits_on=pids[(i + 1) % len(pids)],
                    trace_tail=tail,
                )
            )
        occupancy = {
            str(wire): ws.occupancy
            for wire, ws in sim.state.items()
            if ws.occupancy
        }
        return cls(
            declared_at=sim.cycle,
            wait_cycle=pids,
            witness_channels=held,
            blocked=blocked,
            buffer_occupancy=occupancy,
        )


class MetricsCollector:
    """Samples a live simulator into time-series and cumulative counters.

    Pass as ``metrics=`` to :class:`~repro.sim.network.NetworkSimulator`
    (or set ``RunConfig(metrics=True)``).  One collector observes exactly
    one simulator; binding it twice raises.

    Parameters
    ----------
    sample_every:
        Sampling interval in cycles.
    series_capacity:
        Ring-buffer length of every :class:`TimeSeries` (oldest samples
        are evicted past it, counted in ``TimeSeries.dropped``).
    trace_tail:
        Trace events kept per blocked packet in a forensics report
        (requires a ``tracer`` on the simulator to be non-empty).
    """

    def __init__(
        self,
        sample_every: int = 100,
        *,
        series_capacity: int = 512,
        trace_tail: int = 10,
    ) -> None:
        if sample_every < 1:
            raise SimulationError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.series_capacity = series_capacity
        self.trace_tail = trace_tail

        self._sim: "NetworkSimulator | None" = None
        self.cycles_observed = 0
        self.samples_taken = 0
        self._last_sample_cycle = 0
        self._last_flits_delivered = 0
        self._last_flit_moves = 0
        self._window_stalls = 0
        self.total_vc_stalls = 0

        #: Global sampled series, appended in lockstep every sample.
        self.series: dict[str, TimeSeries] = {
            name: TimeSeries(name, series_capacity)
            for name in (
                "throughput",
                "flit_moves",
                "buffered_flits",
                "injection_depth",
                "packets_in_flight",
                "vc_stalls",
                "mean_link_utilization",
                "max_link_utilization",
            )
        }
        #: Per-wire windowed-utilization series (created lazily per wire).
        self.channel_series: dict[Wire, TimeSeries] = {}
        self._channels: dict[Wire, _ChannelCounters] = {}
        self._last_carried: dict[Wire, int] = {}
        self._routers: dict["Coord", _RouterCounters] = {}
        #: channel-class string -> partition name (EbDa designs only).
        self.partition_of: dict[str, str] = {}
        self.forensics: DeadlockForensics | None = None
        self._meta: dict = {}

    # -- simulator hooks (cheap; the simulator guards on `metrics is not None`) --

    def bind(self, sim: "NetworkSimulator") -> None:
        """Attach to a simulator (called from ``NetworkSimulator.__init__``)."""
        if self._sim is not None or self._meta:
            raise SimulationError(
                "a MetricsCollector observes exactly one simulator;"
                " create a fresh collector per run"
            )
        self._sim = sim
        design = getattr(sim.routing, "design", None)
        if design is not None:
            for i, part in enumerate(design.partitions):
                name = part.name or f"P{i}"
                for ch in part:
                    self.partition_of[str(ch)] = name
        self._meta = {
            "record": "meta",
            "schema": METRICS_SCHEMA,
            "generator": "repro.sim.metrics",
            "topology": repr(sim.topology),
            "shape": list(getattr(sim.topology, "shape", ())) or None,
            "n_nodes": len(sim.topology.nodes),
            "routing": sim.routing.name,
            "sample_every": self.sample_every,
            "series_capacity": self.series_capacity,
        }
        for node in sim.topology.nodes:
            self._routers[node] = _RouterCounters()
        for wire in sim.wires:
            self._channels[wire] = _ChannelCounters()
            self._last_carried[wire] = 0

    def on_cycle(self, sim: "NetworkSimulator", moves: int) -> None:
        """End-of-cycle hook; samples when the interval elapses."""
        self.cycles_observed += 1
        if sim.cycle % self.sample_every:
            return
        self._sample(sim)

    def note_vc_stall(self, router: "Coord") -> None:
        """A head (or injection) found no free output wire this cycle."""
        self._window_stalls += 1
        self.total_vc_stalls += 1
        counters = self._routers.get(router)
        if counters is None:
            counters = self._routers[router] = _RouterCounters()
        counters.vc_stalls += 1

    def on_deadlock(self, sim: "NetworkSimulator") -> None:
        """Watchdog hook: freeze the forensics snapshot."""
        if self.forensics is None:
            self.forensics = DeadlockForensics.capture(sim, self.trace_tail)

    # -- sampling ---------------------------------------------------------------

    def _sample(self, sim: "NetworkSimulator") -> None:
        cycle = sim.cycle
        window = cycle - self._last_sample_cycle
        if window <= 0:
            return
        stats = sim.stats
        delivered_delta = stats.flits_delivered - self._last_flits_delivered
        moves_delta = stats.flit_moves - self._last_flit_moves
        n_nodes = self._meta.get("n_nodes") or len(sim.topology.nodes)

        utils: list[float] = []
        buffered = 0
        router_occ: dict["Coord", int] = {}
        for wire, ws in sim.state.items():
            counters = self._channels.get(wire)
            if counters is None:  # wire added by a fault-triggered reroute
                counters = self._channels[wire] = _ChannelCounters()
                self._last_carried[wire] = 0
            carried_delta = ws.flits_carried - self._last_carried[wire]
            self._last_carried[wire] = ws.flits_carried
            counters.flits += carried_delta
            occ = ws.occupancy
            counters.occupancy_sum += occ
            if occ > counters.occupancy_peak:
                counters.occupancy_peak = occ
            counters.samples += 1
            util = carried_delta / window
            utils.append(util)
            series = self.channel_series.get(wire)
            if series is None:
                series = self.channel_series[wire] = TimeSeries(
                    str(wire), self.series_capacity
                )
            series.append(cycle, util)
            buffered += occ
            router_occ[wire.dst] = router_occ.get(wire.dst, 0) + occ

        for node, occ in router_occ.items():
            counters = self._routers.get(node)
            if counters is None:
                counters = self._routers[node] = _RouterCounters()
            counters.buffered_sum += occ
            if occ > counters.buffered_peak:
                counters.buffered_peak = occ
        for counters in self._routers.values():
            counters.samples += 1

        injection_depth = sum(len(q) for q in sim.source_queues.values())
        injection_depth += sum(
            1 for inj in sim._injecting.values() if inj is not None
        )

        append = lambda name, value: self.series[name].append(cycle, value)  # noqa: E731
        append("throughput", delivered_delta / (window * n_nodes))
        append("flit_moves", moves_delta)
        append("buffered_flits", buffered)
        append("injection_depth", injection_depth)
        append("packets_in_flight", sim.packets_in_flight())
        append("vc_stalls", self._window_stalls)
        append("mean_link_utilization", sum(utils) / len(utils) if utils else 0.0)
        append("max_link_utilization", max(utils, default=0.0))

        self._window_stalls = 0
        self._last_sample_cycle = cycle
        self._last_flits_delivered = stats.flits_delivered
        self._last_flit_moves = stats.flit_moves
        self.samples_taken += 1

    def finalize(self) -> None:
        """Take a final partial-window sample and detach from the simulator.

        Called automatically by :func:`repro.sim.runner.run_point` (and by
        :meth:`records`); makes the collector a plain picklable value that
        no longer references live simulator state.
        """
        sim = self._sim
        if sim is None:
            return
        if sim.cycle > self._last_sample_cycle:
            self._sample(sim)
        self._meta["cycles"] = self.cycles_observed
        self._sim = None

    # -- derived views ----------------------------------------------------------

    def partition_name(self, wire: Wire) -> str:
        """The EbDa partition of a wire's channel (the channel itself when
        the routing function carries no partition sequence)."""
        return self.partition_of.get(str(wire.channel), str(wire.channel))

    def utilization_of(self, wire: Wire) -> float:
        """Cumulative utilization: flits carried per observed cycle."""
        if not self.cycles_observed:
            return 0.0
        counters = self._channels.get(wire)
        return counters.flits / self.cycles_observed if counters else 0.0

    def hottest_channels(self, n: int = 5) -> list[tuple[Wire, float]]:
        """The ``n`` busiest wires by cumulative utilization, descending."""
        ranked = sorted(
            ((w, self.utilization_of(w)) for w in self._channels),
            key=lambda item: (-item[1], item[0].order_key()),
        )
        return ranked[:n]

    def heatmap(self) -> dict[str, dict]:
        """Per-EbDa-partition congestion rollup.

        Maps partition name to its member channel classes, wire count,
        mean/max utilization and the hottest member wires — congestion
        read against the theory's partition structure.
        """
        groups: dict[str, list[tuple[Wire, float]]] = {}
        for wire in self._channels:
            groups.setdefault(self.partition_name(wire), []).append(
                (wire, self.utilization_of(wire))
            )
        out: dict[str, dict] = {}
        for name in sorted(groups):
            members = groups[name]
            utils = [u for _w, u in members]
            hottest = sorted(members, key=lambda item: (-item[1], item[0].order_key()))[:5]
            out[name] = {
                "channels": sorted({str(w.channel) for w, _u in members}),
                "wires": len(members),
                "mean_utilization": sum(utils) / len(utils),
                "max_utilization": max(utils),
                "hottest": [(str(w), u) for w, u in hottest],
            }
        return out

    def summary_dict(self) -> dict:
        """Compact JSON-safe summary (attached per point to SweepReports)."""
        hottest = self.hottest_channels(1)
        return {
            "cycles": self.cycles_observed,
            "samples": self.samples_taken,
            "sample_every": self.sample_every,
            "vc_stalls": self.total_vc_stalls,
            "mean_link_utilization": _finite(
                self.series["mean_link_utilization"].mean() or 0.0
            ),
            "max_link_utilization": _finite(
                self.series["max_link_utilization"].max() or 0.0
            ),
            "hottest_channel": str(hottest[0][0]) if hottest else None,
            "deadlock": self.forensics is not None,
        }

    # -- export -----------------------------------------------------------------

    def records(self, stats: "SimStats | None" = None) -> list[dict]:
        """Every telemetry record, in JSONL order (meta first).

        Finalizes the collector (final partial sample, detach) first, so
        cumulative counters are exact as of the last simulated cycle.
        """
        self.finalize()
        meta = dict(self._meta) or {"record": "meta", "schema": METRICS_SCHEMA}
        meta["cycles"] = self.cycles_observed
        meta["samples"] = self.samples_taken
        meta["n_channels"] = len(self._channels)
        meta["n_routers"] = len(self._routers)
        partitions: dict[str, list[str]] = {}
        for wire in self._channels:
            partitions.setdefault(self.partition_name(wire), [])
        for ch, part in self.partition_of.items():
            partitions.setdefault(part, []).append(ch)
        meta["partitions"] = {
            name: sorted(set(chs)) for name, chs in sorted(partitions.items())
        }
        out: list[dict] = [meta]

        names = list(self.series)
        lockstep = list(zip(*(self.series[n] for n in names)))
        for row in lockstep:
            cycle = row[0][0]
            record = {"record": "sample", "cycle": cycle}
            for name, (_c, value) in zip(names, row):
                record[name] = _finite(value) if isinstance(value, float) else value
            out.append(record)

        for wire in sorted(self._channels, key=Wire.order_key):
            counters = self._channels[wire]
            series = self.channel_series.get(wire)
            out.append(
                {
                    "record": "channel",
                    "wire": str(wire),
                    "channel": str(wire.channel),
                    "partition": self.partition_name(wire),
                    "src": list(wire.src),
                    "dst": list(wire.dst),
                    "flits": counters.flits,
                    "utilization": _finite(self.utilization_of(wire)),
                    "avg_occupancy": _finite(counters.avg_occupancy),
                    "peak_occupancy": counters.occupancy_peak,
                    "series": {
                        "cycles": series.cycles if series else [],
                        "values": [_finite(v) for v in series.values]
                        if series
                        else [],
                        "dropped": series.dropped if series else 0,
                    },
                }
            )

        for node in sorted(self._routers):
            counters = self._routers[node]
            out.append(
                {
                    "record": "router",
                    "node": list(node),
                    "avg_buffered": _finite(counters.avg_buffered),
                    "peak_buffered": counters.buffered_peak,
                    "vc_stalls": counters.vc_stalls,
                }
            )

        if stats is not None:
            out.append({"record": "stats", **stats.to_dict()})
        if self.forensics is not None:
            out.append(self.forensics.to_dict())
        return out

    def to_jsonl(self, path, stats: "SimStats | None" = None) -> int:
        """Write every record as strict JSON Lines; returns the line count."""
        return write_jsonl(path, self.records(stats))

    def to_csv(self, path) -> int:
        """Write the global sampled series as CSV; returns the row count."""
        import csv
        import io

        names = list(self.series)
        rows = list(zip(*(self.series[n] for n in names)))
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["cycle"] + names)
        for row in rows:
            writer.writerow([row[0][0]] + [value for _c, value in row])
        atomic_write(path, buffer.getvalue())
        return len(rows)

    # -- rendering --------------------------------------------------------------

    def summary(self, stats: "SimStats | None" = None) -> str:
        """Human-readable telemetry report."""
        return render_summary(self.records(stats))

    def render_heatmap(self) -> str:
        """Per-partition channel-utilization heatmap (text)."""
        return render_heatmap(self.records())


# -- reading and rendering exported telemetry ------------------------------------


def load_metrics(path) -> list[dict]:
    """Load a JSONL telemetry export back into its record dicts.

    Strict (:func:`repro.store.read_jsonl`), and rejects lines without a
    ``record`` kind and files whose leading record is not a compatible
    ``meta`` record.
    """
    records = read_jsonl(path)
    for index, record in enumerate(records, 1):
        if "record" not in record:
            raise EbdaError(f"{path}: record {index} is not a telemetry record")
    if not records or records[0].get("record") != "meta":
        raise EbdaError(f"{path}: missing leading meta record")
    if records[0].get("schema") != METRICS_SCHEMA:
        raise EbdaError(
            f"{path}: schema {records[0].get('schema')!r} unsupported"
            f" (expected {METRICS_SCHEMA})"
        )
    return records


def _of_kind(records: list[dict], kind: str) -> list[dict]:
    return [r for r in records if r.get("record") == kind]


def _meta(records: list[dict]) -> dict:
    found = _of_kind(records, "meta")
    return found[0] if found else {}


def render_summary(records: list[dict]) -> str:
    """Text summary of a telemetry export (or a live collector's records)."""
    meta = _meta(records)
    samples = _of_kind(records, "sample")
    channels = _of_kind(records, "channel")
    stats = _of_kind(records, "stats")
    forensics = _of_kind(records, "forensics")

    lines = ["telemetry summary"]
    lines.append(
        f"  topology {meta.get('topology', '?')}"
        f" ({meta.get('n_nodes', '?')} nodes), routing {meta.get('routing', '?')}"
    )
    lines.append(
        f"  {meta.get('cycles', 0)} cycles, {len(samples)} samples every"
        f" {meta.get('sample_every', '?')} cycles,"
        f" {len(channels)} channels / {meta.get('n_routers', '?')} routers"
    )

    def col(name: str) -> list[float]:
        return [s[name] for s in samples if s.get(name) is not None]

    if samples:
        thr = col("throughput")
        lines.append(
            f"  throughput: mean {sum(thr) / len(thr):.4f}"
            f" max {max(thr):.4f} flits/node/cycle"
        )
        buf = col("buffered_flits")
        lines.append(
            f"  buffered flits: mean {sum(buf) / len(buf):.1f} peak {max(buf)}"
        )
        inj = col("injection_depth")
        lines.append(
            f"  injection depth: mean {sum(inj) / len(inj):.1f} peak {max(inj)}"
        )
        lines.append(f"  VC-allocation stalls: {sum(col('vc_stalls'))}")
        mean_u = col("mean_link_utilization")
        max_u = col("max_link_utilization")
        lines.append(
            f"  link utilization: mean {sum(mean_u) / len(mean_u):.3f}"
            f" max {max(max_u):.3f}"
        )
    else:
        lines.append("  (no samples taken)")

    if channels:
        hottest = sorted(
            channels, key=lambda c: -(c.get("utilization") or 0.0)
        )[:5]
        lines.append("  hottest channels:")
        for c in hottest:
            lines.append(
                f"    {c['wire']:28s} [{c['partition']}]"
                f" util {c.get('utilization') or 0.0:.3f} flits {c['flits']}"
            )
    if stats:
        s = stats[0]
        lines.append(
            f"  run: injected {s.get('packets_injected')}"
            f" delivered {s.get('packets_delivered')}"
            f" deadlocked {s.get('deadlocked')}"
        )
    if forensics:
        f = forensics[0]
        lines.append(
            f"  DEADLOCK declared at cycle {f['declared_at']}"
            f" — {len(f['wait_cycle'])} packets in the cyclic wait"
            " (see forensics)"
        )
    return "\n".join(lines)


def _shade(value: float, top: float) -> str:
    if top <= 0:
        return _SHADES[0]
    idx = int(round(value / top * (len(_SHADES) - 1)))
    return _SHADES[max(0, min(len(_SHADES) - 1, idx))]


def render_heatmap(records: list[dict]) -> str:
    """Per-partition utilization heatmap of an exported telemetry file.

    On 2D topologies each channel class renders as a grid over source
    coordinates (shade ramp ``{ramp}``, scaled to the hottest wire);
    other topologies list each partition's hottest wires.
    """
    meta = _meta(records)
    channels = _of_kind(records, "channel")
    if not channels:
        return "(no channel records)"
    top = max((c.get("utilization") or 0.0) for c in channels)
    by_partition: dict[str, list[dict]] = {}
    for c in channels:
        by_partition.setdefault(c["partition"], []).append(c)

    shape = meta.get("shape")
    lines = [
        "channel utilization heatmap"
        f" (flits/cycle per wire; '{_SHADES[-1]}' = {top:.3f})"
    ]
    for name in sorted(by_partition):
        members = by_partition[name]
        utils = [c.get("utilization") or 0.0 for c in members]
        classes = sorted({c["channel"] for c in members})
        lines.append(
            f"partition {name} ({' '.join(classes)}): {len(members)} wires,"
            f" mean {sum(utils) / len(utils):.3f} max {max(utils):.3f}"
        )
        if shape and len(shape) == 2:
            for cls in classes:
                grid = {
                    tuple(c["src"]): (c.get("utilization") or 0.0)
                    for c in members
                    if c["channel"] == cls
                }
                lines.append(f"  {cls} (rows y={shape[1] - 1}..0, cols x=0..{shape[0] - 1}):")
                for y in range(shape[1] - 1, -1, -1):
                    row = "".join(
                        _shade(grid[(x, y)], top) if (x, y) in grid else "_"
                        for x in range(shape[0])
                    )
                    lines.append(f"    |{row}|")
        else:
            hottest = sorted(
                members, key=lambda c: -(c.get("utilization") or 0.0)
            )[:5]
            for c in hottest:
                lines.append(
                    f"  {c['wire']:28s} util {c.get('utilization') or 0.0:.3f}"
                )
    return "\n".join(lines)


render_heatmap.__doc__ = render_heatmap.__doc__.format(ramp=_SHADES)


def render_forensics(records: list[dict]) -> str:
    """Text report of the deadlock forensics record, if any."""
    forensics = _of_kind(records, "forensics")
    if not forensics:
        return "(no deadlock forensics recorded)"
    f = forensics[0]
    lines = [f"deadlock forensics — declared at cycle {f['declared_at']}"]
    pids = f["wait_cycle"]
    if pids:
        chain = " -> ".join(f"#{p}" for p in pids) + f" -> #{pids[0]}"
        lines.append(f"cyclic wait: {chain}")
    else:
        lines.append("cyclic wait: (no witness extracted)")
    for b in f["blocked"]:
        lines.append(
            f"  #{b['pid']} {tuple(b['src'])}->{tuple(b['dst'])}"
            f" len={b['length']} age={b['age']} waits on #{b['waits_on']}"
        )
        if b["holds"]:
            lines.append(f"    holds: {', '.join(b['holds'])}")
        for event in b.get("trace_tail", []):
            lines.append(f"    {event}")
    if f["buffer_occupancy"]:
        lines.append("blocked buffers at declaration:")
        for wire, occ in sorted(f["buffer_occupancy"].items()):
            lines.append(f"  {wire}: {occ} flit(s)")
    return "\n".join(lines)
