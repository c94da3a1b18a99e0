"""Simulation statistics: latency, throughput, progress accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor
from typing import Sequence


def _mean(values: Sequence[int]) -> float:
    """``statistics.mean`` of integers, by integer sum: NaN when empty, an
    ``int`` when the mean is integral (``_mean([1, 3]) == 2``), else the
    correctly rounded ``float`` — exactly what ``statistics.mean`` returns,
    without its Fraction arithmetic."""
    if not values:
        return float("nan")
    total = sum(values)
    n = len(values)
    return total // n if total % n == 0 else total / n


def _percentile(ordered: Sequence[int], q: float) -> float:
    """The q-th percentile of already sorted values (see
    :meth:`SimStats.latency_percentile`); NaN when empty."""
    if not ordered:
        return float("nan")
    rank = min(max(q, 0.0), 100.0) / 100 * (len(ordered) - 1)
    lo = floor(rank)
    frac = rank - lo
    if frac == 0.0 or lo + 1 >= len(ordered):
        return float(ordered[lo])
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


def _jsonable(value: float) -> float | None:
    """NaN (the no-data sentinel of the latency averages) -> None.

    Strict JSON has no NaN token; every exported derived metric uses
    ``null`` for "no packets delivered" instead.
    """
    return None if value != value else value


#: Derived (read-only) keys emitted by :meth:`SimStats.to_dict` for
#: consumers; :meth:`SimStats.from_dict` drops them so the round trip
#: reconstructs exactly the stored counters.
_DERIVED_KEYS = (
    "avg_total_latency",
    "avg_network_latency",
    "p50_latency",
    "p95_latency",
    "p99_latency",
    "avg_recovery_latency",
    "delivery_ratio",
)


@dataclass
class SimStats:
    """Counters accumulated over a simulation run."""

    cycles: int = 0
    packets_injected: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    flit_moves: int = 0
    #: (total latency, network latency) per delivered packet.
    latencies: list[tuple[int, int]] = field(default_factory=list)
    #: Multicast copies absorbed at waypoints (path-based multicast).
    multicast_copies: int = 0
    deadlocked: bool = False
    #: Simulation cycle number at which the watchdog *declared* deadlock
    #: (None while none declared).  Not to be confused with the cyclic
    #: wait itself — the *cycle of packets* a witness names lives in
    #: :attr:`repro.errors.DeadlockDetected.cycle`.
    deadlock_declared_at: int | None = None
    #: Faults actually applied from a :class:`~repro.sim.faults.FaultSchedule`.
    faults_injected: int = 0
    #: Packets aborted by recovery/fault handling (flits flushed mid-flight).
    packets_aborted: int = 0
    #: Aborted packets re-queued at their source after backoff.
    retransmissions: int = 0
    #: Cyclic waits broken by regressive recovery (victim abort).
    recovered_deadlocks: int = 0
    #: Packets irrecoverably lost (e.g. source or destination router died).
    packets_lost: int = 0
    #: Per-recovered-packet cycles from (first) abort to final delivery.
    recovery_latencies: list[int] = field(default_factory=list)

    @property
    def deadlock_cycle(self) -> int | None:
        """Removed alias of :attr:`deadlock_declared_at`.

        .. versionchanged:: 1.6
            Accessing it now raises; the old name ambiguously suggested
            the "cycle of packets" of a deadlock witness.  Deprecated
            since 1.2.
        """
        raise AttributeError(
            "SimStats.deadlock_cycle was removed in 1.6 (deprecated in 1.2):"
            " use SimStats.deadlock_declared_at"
        )

    def record_delivery(self, total: int, network: int, flits: int) -> None:
        self.packets_delivered += 1
        self.flits_delivered += flits
        self.latencies.append((total, network))

    @property
    def avg_total_latency(self) -> float:
        """Mean creation-to-delivery latency (cycles)."""
        return _mean([t for t, _n in self.latencies])

    @property
    def avg_network_latency(self) -> float:
        """Mean injection-to-delivery latency (cycles)."""
        return _mean([n for _t, n in self.latencies])

    @property
    def max_total_latency(self) -> int:
        return max((t for t, _n in self.latencies), default=0)

    def latency_percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of total latency.

        Linear interpolation between closest ranks (numpy's default,
        "inclusive" convention): rank ``q/100 * (n-1)`` over the sorted
        values, fractional ranks interpolating linearly between the two
        neighbours.  With values ``1..100``, p50 = 50.5 and p99 = 99.01.
        This is the convention behind the ``p50/p95/p99`` fields of
        :meth:`to_dict` and the metrics summaries.  NaN when no packet
        was delivered.
        """
        return _percentile(sorted(t for t, _n in self.latencies), q)

    def throughput(self, n_nodes: int) -> float:
        """Delivered flits per node per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.flits_delivered / (self.cycles * n_nodes)

    @property
    def delivery_ratio(self) -> float:
        """Delivered / injected packets (1.0 once drained).

        Retransmissions do not re-count as injections, so a run that
        recovers every fault still reaches exactly 1.0; permanently lost
        packets (dead source/destination routers) keep it below 1.0.
        """
        if self.packets_injected == 0:
            return 1.0
        return self.packets_delivered / self.packets_injected

    @property
    def avg_recovery_latency(self) -> float:
        """Mean cycles from a packet's first abort to its final delivery."""
        return _mean(self.recovery_latencies)

    def to_dict(self) -> dict:
        """JSON-safe dict with every counter (the result-cache format).

        Inverse of :meth:`from_dict`; the round trip is exact, so a
        cache-loaded run compares bit-identical to a fresh one.  Derived
        metrics (:data:`_DERIVED_KEYS`) ride along for consumers that
        read exports without this class; empty-latency runs serialize
        them as ``null``, never the invalid-JSON ``NaN``.
        """
        totals = [t for t, _n in self.latencies]
        ordered = sorted(totals)
        return {
            "avg_total_latency": _jsonable(_mean(totals)),
            "avg_network_latency": _jsonable(self.avg_network_latency),
            "p50_latency": _jsonable(_percentile(ordered, 50)),
            "p95_latency": _jsonable(_percentile(ordered, 95)),
            "p99_latency": _jsonable(_percentile(ordered, 99)),
            "avg_recovery_latency": _jsonable(self.avg_recovery_latency),
            "delivery_ratio": _jsonable(self.delivery_ratio),
            "cycles": self.cycles,
            "packets_injected": self.packets_injected,
            "packets_delivered": self.packets_delivered,
            "flits_delivered": self.flits_delivered,
            "flit_moves": self.flit_moves,
            "latencies": [list(pair) for pair in self.latencies],
            "multicast_copies": self.multicast_copies,
            "deadlocked": self.deadlocked,
            "deadlock_declared_at": self.deadlock_declared_at,
            "faults_injected": self.faults_injected,
            "packets_aborted": self.packets_aborted,
            "retransmissions": self.retransmissions,
            "recovered_deadlocks": self.recovered_deadlocks,
            "packets_lost": self.packets_lost,
            "recovery_latencies": list(self.recovery_latencies),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Rebuild stats from :meth:`to_dict` output (JSON round-trip safe).

        Derived keys are recomputable views, not state — they are dropped
        so ``SimStats.from_dict(s.to_dict()) == s`` holds exactly.
        """
        fields = dict(data)
        for key in _DERIVED_KEYS:
            fields.pop(key, None)
        fields["latencies"] = [
            (int(t), int(n)) for t, n in fields.get("latencies", [])
        ]
        fields["recovery_latencies"] = [
            int(v) for v in fields.get("recovery_latencies", [])
        ]
        return cls(**fields)

    def summary(self, n_nodes: int) -> str:
        """One-line human-readable summary."""
        status = "DEADLOCK" if self.deadlocked else "ok"
        line = (
            f"[{status}] cycles={self.cycles} injected={self.packets_injected}"
            f" delivered={self.packets_delivered}"
            f" avg_lat={self.avg_total_latency:.1f}"
            f" thr={self.throughput(n_nodes):.4f} flits/node/cycle"
        )
        if self.faults_injected or self.packets_aborted or self.recovered_deadlocks:
            line += (
                f" faults={self.faults_injected} aborted={self.packets_aborted}"
                f" retx={self.retransmissions}"
                f" recovered={self.recovered_deadlocks} lost={self.packets_lost}"
            )
        return line
