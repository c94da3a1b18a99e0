"""Chaos engineering: trace-driven workloads, Monte-Carlo fault campaigns,
survival analytics.

EbDa's verification story answers *can this network deadlock*; this
package answers the capacity-planning question that follows it into
production: *how does a design behave under realistic traffic while
faults land on a schedule nobody chose*.  Three pillars:

* :mod:`repro.chaos.workloads` — :class:`WorkloadTrace`, a plain-data,
  picklable, cacheable record describing a deterministic injection
  schedule (all-reduce, shuffle, incast, bursty ON/OFF, or a replayed
  JSONL trace), fed into the simulator's cycle loop as a *traced* traffic
  mode alongside :class:`~repro.sim.traffic.TrafficGenerator`;
* :mod:`repro.chaos.campaign` — :class:`ChaosCampaign`, a Monte-Carlo
  driver sweeping seeded random fault schedules x recovery policies x
  workloads over :meth:`~repro.sim.parallel.SweepEngine.run_campaign`, with
  content-addressed checkpoints (:mod:`repro.chaos.checkpoint`) so an
  interrupted campaign resumes byte-identically;
* :mod:`repro.chaos.survival` — per-policy survival curves
  (P[delivered | k faults], time-to-deadlock distributions, recovery-cost
  percentiles) aggregated from :class:`~repro.sim.stats.SimStats` and
  :class:`~repro.sim.metrics.DeadlockForensics` outcomes, exported as
  strict JSONL and rendered by :func:`render_survival`.

The ``repro chaos`` CLI subcommand drives all three.
"""

from repro.chaos.campaign import (
    NAMED_RECOVERY_POLICIES,
    CampaignConfig,
    CampaignReport,
    ChaosCampaign,
    TrialSpec,
    derive_trial,
    trial_record_bytes,
)
from repro.chaos.checkpoint import CampaignCheckpoint
from repro.chaos.survival import (
    CHAOS_SCHEMA,
    load_survival,
    render_survival,
    survival_curves,
)
from repro.chaos.workloads import (
    NAMED_WORKLOADS,
    TracedWorkload,
    WorkloadTrace,
    load_workload,
    resolve_workload,
)

__all__ = [
    "CHAOS_SCHEMA",
    "CampaignCheckpoint",
    "CampaignConfig",
    "CampaignReport",
    "ChaosCampaign",
    "NAMED_RECOVERY_POLICIES",
    "NAMED_WORKLOADS",
    "TracedWorkload",
    "TrialSpec",
    "WorkloadTrace",
    "derive_trial",
    "load_survival",
    "load_workload",
    "render_survival",
    "resolve_workload",
    "survival_curves",
    "trial_record_bytes",
]
