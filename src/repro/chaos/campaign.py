"""Monte-Carlo chaos campaigns: seeded fault x policy x workload sweeps.

A :class:`ChaosCampaign` asks the empirical version of EbDa's question:
instead of *can this design deadlock*, it measures *how often does it
deadlock, and at what recovery cost, when faults land on schedules nobody
chose*.  Each trial is derived purely from ``(config, index)`` — which
workload runs, which recovery policy is armed, how many link failures
strike and under which seeds — so the campaign is deterministic
end-to-end: the same config produces byte-identical trial records whether
it runs serially, fanned out over the workers of
:meth:`~repro.sim.parallel.SweepEngine.run_campaign`, in one sitting
or resumed from a :class:`~repro.chaos.checkpoint.CampaignCheckpoint`
after a kill.

Trial records carry **no wall-clock timing** — that is what makes the
determinism testable (the campaign tests diff two runs byte for byte)
and the checkpoint format content-addressable.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

from repro.errors import EbdaError, SimulationError, UnroutableError
from repro.obs.ledger import record_run
from repro.obs.metrics import REGISTRY
from repro.sim.faults import FaultSchedule, RecoveryPolicy
from repro.sim.runner import RunConfig, run_point
from repro.sim.specs import EbdaDesignFactory, resolve_routing_factory
from repro.sim.stats import _jsonable
from repro.store import atomic_write, canonical_json, digest
from repro.topology.mesh import Mesh

from repro.chaos.checkpoint import CampaignCheckpoint
from repro.chaos.survival import CHAOS_SCHEMA, render_survival, survival_curves
from repro.chaos.workloads import NAMED_WORKLOADS, resolve_workload

__all__ = [
    "NAMED_RECOVERY_POLICIES",
    "CampaignConfig",
    "CampaignReport",
    "ChaosCampaign",
    "TrialSpec",
    "derive_trial",
    "run_trial",
    "trial_record_bytes",
]

#: Named recovery policies a campaign sweeps over (``None`` = no recovery:
#: the watchdog declares deadlock instead of aborting a victim).
NAMED_RECOVERY_POLICIES: dict[str, RecoveryPolicy | None] = {
    "none": None,
    "retry-2": RecoveryPolicy(max_retries=2),
    "retry-8": RecoveryPolicy(max_retries=8),
}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign — its identity IS its token.

    All fields are plain data; :meth:`token` hashes them together with the
    chaos schema and the library version, so any change (including a
    library upgrade) keys a fresh checkpoint directory instead of resuming
    stale trials.
    """

    trials: int = 50
    seed: int = 0
    mesh: tuple[int, ...] = (4, 4)
    routing: str = "negative-first"
    workloads: tuple[str, ...] = ("all-reduce", "shuffle", "incast", "bursty")
    policies: tuple[str, ...] = ("none", "retry-2", "retry-8")
    #: Per-trial link-failure count is drawn uniformly from 0..max_faults.
    max_faults: int = 2
    cycles: int = 300
    buffer_depth: int = 4
    watchdog: int = 200

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SimulationError("a campaign needs at least one trial")
        if self.cycles < 1:
            raise SimulationError("a campaign needs at least one cycle per trial")
        if self.max_faults < 0:
            raise SimulationError("max_faults cannot be negative")
        object.__setattr__(self, "mesh", tuple(int(k) for k in self.mesh))
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.workloads:
            raise SimulationError("a campaign needs at least one workload")
        if not self.policies:
            raise SimulationError("a campaign needs at least one policy")
        for name in self.workloads:
            resolve_workload(name)  # fail fast on typos
        for name in self.policies:
            if name not in NAMED_RECOVERY_POLICIES:
                known = ", ".join(sorted(NAMED_RECOVERY_POLICIES))
                raise SimulationError(
                    f"unknown recovery policy {name!r}; known policies: {known}"
                )
        resolve_routing_factory(self.routing)

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SimulationError(
                f"unknown campaign fields: {', '.join(sorted(unknown))}"
            )
        payload = dict(data)
        for name in ("mesh", "workloads", "policies"):
            if name in payload:
                payload[name] = tuple(payload[name])
        return cls(**payload)

    def token(self) -> str:
        """The campaign's 16-hex identity (checkpoint directory name)."""
        import repro

        material = canonical_json(
            {
                "schema": CHAOS_SCHEMA,
                "version": repro.__version__,
                "config": self.to_dict(),
            }
        )
        return digest(material, 16)


@dataclass(frozen=True)
class TrialSpec:
    """One trial's derived parameters — a pure function of (config, index)."""

    index: int
    workload: str
    policy: str
    n_faults: int
    workload_seed: int
    fault_seed: int
    sim_seed: int


def derive_trial(config: CampaignConfig, index: int) -> TrialSpec:
    """The Monte-Carlo draw for trial ``index`` (deterministic, order-free).

    Each trial owns a fresh ``Random(f"{seed}:{index}")``, so trials can
    be derived in any order — the property checkpoint resume relies on.
    """
    if not 0 <= index < config.trials:
        raise SimulationError(
            f"trial index {index} outside campaign range 0..{config.trials - 1}"
        )
    rng = random.Random(f"chaos:{config.seed}:{index}")
    return TrialSpec(
        index=index,
        workload=config.workloads[rng.randrange(len(config.workloads))],
        policy=config.policies[rng.randrange(len(config.policies))],
        n_faults=rng.randint(0, config.max_faults),
        workload_seed=rng.randrange(2**31),
        fault_seed=rng.randrange(2**31),
        sim_seed=rng.randrange(2**31),
    )


def _campaign_routing_factory(routing: str):
    """The fault-tolerant factory variant of a routing spec.

    Catalog designs get ``directions="progressive", fallback="escape"``
    (the V7 fault-sweep configuration — without an escape fallback a
    degraded mesh strands packets the turn model cannot serve); native
    named factories resolve as-is.
    """
    from repro.core import catalog

    name = routing.removeprefix("ebda:")
    if name in catalog.NAMED_DESIGNS:
        return EbdaDesignFactory(name, directions="progressive", fallback="escape")
    return resolve_routing_factory(routing)


def run_trial(config: CampaignConfig, index: int) -> dict:
    """Execute one trial; returns its strict-JSON record (no wall time)."""
    spec = derive_trial(config, index)
    record: dict = {
        "record": "trial",
        "index": spec.index,
        "workload": spec.workload,
        "policy": spec.policy,
        "n_faults": spec.n_faults,
        "workload_seed": spec.workload_seed,
        "fault_seed": spec.fault_seed,
        "sim_seed": spec.sim_seed,
    }
    topology = Mesh(*config.mesh)
    factory = _campaign_routing_factory(config.routing)
    trace = resolve_workload(spec.workload).with_seed(spec.workload_seed)

    fault_window = (10, max(11, config.cycles // 2))
    try:
        faults = (
            FaultSchedule.random(
                topology,
                seed=spec.fault_seed,
                n_link_failures=spec.n_faults,
                window=fault_window,
                routing_factory=factory,
            )
            if spec.n_faults
            else None
        )
        run_config = RunConfig(
            cycles=config.cycles,
            packet_length=trace.packet_length,
            buffer_depth=config.buffer_depth,
            watchdog=config.watchdog,
            drain=True,
            seed=spec.sim_seed,
            faults=faults,
            recovery=NAMED_RECOVERY_POLICIES[spec.policy],
            routing_factory=factory if faults is not None else None,
            metrics=True,
            workload=trace,
        )
        result = run_point(topology, factory, run_config)
    except UnroutableError as exc:
        record.update(outcome="unroutable", error=str(exc))
        return record
    except (SimulationError, EbdaError) as exc:
        record.update(outcome="error", error=str(exc))
        return record

    stats = result.stats
    if stats.deadlocked:
        outcome = "deadlock"
    elif stats.packets_injected and stats.delivery_ratio >= 1.0:
        outcome = "delivered"
    else:
        outcome = "degraded"

    first_fault = min((e.cycle for e in faults), default=None) if faults else None
    time_to_deadlock = None
    if stats.deadlock_declared_at is not None and first_fault is not None:
        time_to_deadlock = stats.deadlock_declared_at - first_fault

    collector = result.metrics
    forensics = getattr(collector, "forensics", None)
    recovery_mean = (
        sum(stats.recovery_latencies) / len(stats.recovery_latencies)
        if stats.recovery_latencies
        else None
    )
    record.update(
        outcome=outcome,
        cycles=stats.cycles,
        packets_injected=stats.packets_injected,
        packets_delivered=stats.packets_delivered,
        delivery_ratio=stats.delivery_ratio,
        faults_injected=stats.faults_injected,
        packets_aborted=stats.packets_aborted,
        retransmissions=stats.retransmissions,
        recovered_deadlocks=stats.recovered_deadlocks,
        packets_lost=stats.packets_lost,
        deadlock_declared_at=stats.deadlock_declared_at,
        first_fault_cycle=first_fault,
        time_to_deadlock=time_to_deadlock,
        latency_p50=_jsonable(stats.latency_percentile(50)),
        latency_p95=_jsonable(stats.latency_percentile(95)),
        latency_p99=_jsonable(stats.latency_percentile(99)),
        recovery_latency_mean=recovery_mean,
        wait_cycle_len=(
            len(forensics.wait_cycle) if forensics is not None else None
        ),
    )
    return record


def _run_trial(payload: "tuple[CampaignConfig, int]") -> dict:
    """Worker entry for :meth:`SweepEngine.run_campaign` (module-level: picklable)."""
    config, index = payload
    return run_trial(config, index)


def trial_record_bytes(record: dict) -> bytes:
    """The canonical bytes of one trial record (checkpointed verbatim)."""
    return canonical_json(record).encode()


@dataclass
class CampaignReport:
    """A campaign's outcome: ordered canonical trial bytes plus aggregates."""

    config: CampaignConfig
    #: Canonical record bytes, ordered by trial index (possibly a prefix
    #: subset when the budget interrupted the campaign).
    trial_bytes: list[bytes] = field(default_factory=list)
    interrupted: bool = False

    @cached_property
    def records(self) -> list[dict]:
        """The parsed trial records, in index order."""
        return [json.loads(data) for data in self.trial_bytes]

    @property
    def trials_completed(self) -> int:
        return len(self.trial_bytes)

    @property
    def ok(self) -> bool:
        """True when every trial completed and none errored."""
        return not self.interrupted and all(
            r["outcome"] != "error" for r in self.records
        )

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r["outcome"]] = counts.get(r["outcome"], 0) + 1
        return counts

    def survival(self) -> list[dict]:
        """The per-policy survival records (see :mod:`repro.chaos.survival`)."""
        return survival_curves(self.records)

    def meta(self) -> dict:
        """The leading ``campaign-meta`` record (no timing: deterministic)."""
        return {
            "record": "campaign-meta",
            "schema": CHAOS_SCHEMA,
            "generator": "repro.chaos",
            "token": self.config.token(),
            "trials_completed": self.trials_completed,
            "interrupted": self.interrupted,
            **self.config.to_dict(),
        }

    def all_records(self) -> list[dict]:
        """Meta + trials + survival, in JSONL order."""
        return [self.meta(), *self.records, *self.survival()]

    def to_jsonl(self, path: "str | Path") -> int:
        """Write the full report as strict JSON Lines; returns the line count.

        Trial lines are the checkpointed bytes verbatim; meta and survival
        are pure functions of the config and those bytes — so the whole
        file is byte-identical across reruns and resumes.
        """
        lines = [canonical_json(self.meta()).encode()]
        lines.extend(self.trial_bytes)
        lines.extend(canonical_json(s).encode() for s in self.survival())
        atomic_write(path, b"\n".join(lines) + b"\n")
        return len(lines)

    def render(self) -> str:
        """The ``repro chaos`` text report."""
        return render_survival(self.all_records())

    def summary(self) -> str:
        """One-line human-readable account of the campaign."""
        counts = self.outcome_counts()
        status = "interrupted" if self.interrupted else "complete"
        outcomes = " ".join(f"{o}={n}" for o, n in sorted(counts.items()))
        return (
            f"chaos campaign {self.config.token()}:"
            f" {self.trials_completed}/{self.config.trials} trials"
            f" [{status}] {outcomes or '(none)'}"
        )


class ChaosCampaign:
    """Drives a :class:`CampaignConfig` to a :class:`CampaignReport`.

    Parameters
    ----------
    config:
        The campaign description (its token keys the checkpoint).
    engine:
        A :class:`~repro.sim.parallel.SweepEngine` for trial fan-out;
        default is the serial in-process engine.  Results are identical
        either way — trials carry their own seeds.
    checkpoint_dir:
        Root directory for resumable state; ``None`` disables
        checkpointing (the campaign still honours ``budget_s`` but an
        interrupted run starts over).
    """

    def __init__(
        self,
        config: CampaignConfig,
        *,
        engine=None,
        checkpoint_dir: "str | Path | None" = None,
    ) -> None:
        from repro.sim.parallel import SweepEngine

        self.config = config
        self.engine = engine if engine is not None else SweepEngine()
        self.checkpoint = (
            CampaignCheckpoint(checkpoint_dir, config.token())
            if checkpoint_dir is not None
            else None
        )

    def run(
        self,
        *,
        budget_s: "float | None" = None,
        progress=None,
        heartbeat=None,
    ) -> CampaignReport:
        """Run (or resume) the campaign.

        ``budget_s`` bounds wall-clock time, checked *after* each batch —
        at least one batch of pending trials always completes, so even
        ``budget_s=0`` makes forward progress and a repeatedly-killed
        campaign still terminates.  ``progress`` (``str -> None``) receives
        one line per batch; ``heartbeat`` (a
        :class:`~repro.obs.heartbeat.HeartbeatWriter`) is beaten per batch
        for the ``repro top`` live view.  Both are observational only and
        never reach the deterministic trial records.
        """
        started = time.monotonic()
        stored: dict[int, bytes] = {}
        if self.checkpoint is not None:
            stored = {
                i: data
                for i, data in self.checkpoint.completed().items()
                if i < self.config.trials
            }
        resumed = len(stored)
        if resumed and progress is not None:
            progress(f"resumed {resumed} trial(s) from {self.checkpoint.directory}")
        counts = Counter(json.loads(data)["outcome"] for data in stored.values())

        def absorb(batch: list[int], results: list[dict]) -> None:
            for index, record in zip(batch, results):
                data = trial_record_bytes(record)
                if self.checkpoint is not None:
                    self.checkpoint.store(index, data)
                stored[index] = data
                counts[record["outcome"]] += 1
            for outcome, n in counts.items():
                REGISTRY.gauge(
                    "repro_chaos_outcomes",
                    labels={"outcome": outcome},
                    help="Chaos trial outcomes so far, by classification.",
                ).set(n)

        interrupted = self.engine.run_campaign(
            "chaos",
            _run_trial,
            [i for i in range(self.config.trials) if i not in stored],
            lambda index: (self.config, index),
            absorb,
            total=self.config.trials,
            status=lambda: {f"n_{o}": n for o, n in sorted(counts.items())},
            budget_s=budget_s,
            progress=progress,
            heartbeat=heartbeat,
            token=self.config.token(),
            trials=self.config.trials,
            resumed=resumed,
        )
        report = CampaignReport(
            config=self.config,
            trial_bytes=[stored[i] for i in sorted(stored)],
            interrupted=interrupted,
        )
        record_run(
            "chaos",
            spec=self.config.token(),
            seed=self.config.seed,
            outcome=(
                "interrupted"
                if interrupted
                else ("ok" if report.ok else "error")
            ),
            payload={
                "trials_completed": report.trials_completed,
                "counts": report.outcome_counts(),
                "digest": digest(b"\n".join(report.trial_bytes), 16),
            },
            wall_s=time.monotonic() - started,
        )
        return report
