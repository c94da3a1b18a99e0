"""Unified observability runtime: spans, run ledger, heartbeats.

Three pillars, one package, all observational (nothing here ever feeds
back into cache keys, seeds or simulation results):

* :mod:`repro.obs.trace` — nested span tracing with strict-JSONL export,
  a process-wide current tracer, and a zero-cost disabled default;
* :mod:`repro.obs.ledger` — an append-only, content-addressed run
  ledger recording every pipeline invocation's identity and outcome
  digest (``repro runs list/show/diff`` queries it; diff detects result
  drift across library versions);
* :mod:`repro.obs.heartbeat` — atomic per-campaign heartbeat files and
  the ``repro top`` live-progress renderer.

See ``docs/OBSERVABILITY.md`` for the guide.
"""

from repro.obs.heartbeat import (
    HEARTBEAT_SCHEMA,
    HeartbeatWriter,
    default_heartbeat_dir,
    load_heartbeat,
    read_heartbeats,
    render_top,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    RunRecord,
    current_ledger,
    default_ledger_dir,
    outcome_digest,
    record_run,
    set_ledger,
)
from repro.obs.trace import (
    NULL_TRACER,
    SPAN_SCHEMA,
    NullTracer,
    Span,
    Tracer,
    check_balance,
    current_tracer,
    load_trace,
    set_tracer,
    tracing,
)

__all__ = [
    "HEARTBEAT_SCHEMA",
    "LEDGER_SCHEMA",
    "NULL_TRACER",
    "SPAN_SCHEMA",
    "HeartbeatWriter",
    "NullTracer",
    "RunLedger",
    "RunRecord",
    "Span",
    "Tracer",
    "check_balance",
    "current_ledger",
    "current_tracer",
    "default_heartbeat_dir",
    "default_ledger_dir",
    "load_heartbeat",
    "load_trace",
    "outcome_digest",
    "read_heartbeats",
    "record_run",
    "render_top",
    "set_ledger",
    "set_tracer",
    "tracing",
]
