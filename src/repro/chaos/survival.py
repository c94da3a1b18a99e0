"""Survival analytics: per-policy curves aggregated from chaos trial records.

A finished campaign is a pile of independent trial records; the question a
capacity planner actually asks is conditional: *given k faults, what is
the probability this recovery policy still delivers everything, and what
does recovery cost when it works?*  :func:`survival_curves` folds the
trial records into one ``survival`` record per recovery policy:

* a **survival curve** — for each observed fault count ``k``,
  ``P[delivered | k faults]``, the mean delivery ratio, and the deadlock /
  unroutable / error counts at that fault level;
* a **time-to-deadlock distribution** — cycles from the first landed
  fault to the watchdog declaring deadlock (p50/p95/max over the trials
  that deadlocked);
* **recovery-cost aggregates** — total aborts, retransmissions and
  recovered deadlocks, plus percentiles of the per-trial mean
  abort-to-delivery latency.

The file format is strict JSON Lines, mirroring
:mod:`repro.sim.metrics`: a leading ``campaign-meta`` record (schema
:data:`CHAOS_SCHEMA`), the ``trial`` records, then the ``survival``
records.  Nothing in the file carries wall-clock timing, so a seeded
campaign's report is byte-identical across runs — the property the
campaign tests (``tests/chaos/test_campaign.py``) assert.
:func:`load_survival` reads a file back strictly; :func:`render_survival`
prints the text report the ``repro chaos`` CLI shows.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import EbdaError
from repro.sim import stats
from repro.store import read_jsonl

__all__ = [
    "CHAOS_SCHEMA",
    "load_survival",
    "render_survival",
    "survival_curves",
]

#: Bump when the chaos JSONL record layout changes incompatibly.
CHAOS_SCHEMA = 1

#: Every outcome a trial record may carry, in severity order.
OUTCOMES = ("delivered", "degraded", "deadlock", "unroutable", "error")


def _percentile(values: list[float], q: float) -> float | None:
    """The q-th percentile of unsorted ``values`` in the
    :meth:`repro.sim.stats.SimStats.latency_percentile` convention; None
    when empty."""
    return stats._jsonable(stats._percentile(sorted(values), q))


def _trials(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("record") == "trial"]


def survival_curves(records: list[dict]) -> list[dict]:
    """Fold trial records into one ``survival`` record per policy.

    Accepts either bare trial dicts or a full report record list (meta
    and survival records are ignored); returns records in policy-name
    order, each strict-JSON-safe and deterministic given the trials.
    """
    by_policy: dict[str, list[dict]] = {}
    for trial in _trials(records):
        by_policy.setdefault(trial["policy"], []).append(trial)

    out: list[dict] = []
    for policy in sorted(by_policy):
        trials = by_policy[policy]
        by_faults: dict[int, list[dict]] = {}
        for t in trials:
            by_faults.setdefault(int(t["n_faults"]), []).append(t)
        curve = []
        for k in sorted(by_faults):
            bucket = by_faults[k]
            survived = sum(1 for t in bucket if t["outcome"] == "delivered")
            ratios = [t["delivery_ratio"] for t in bucket
                      if t.get("delivery_ratio") is not None]
            curve.append(
                {
                    "faults": k,
                    "trials": len(bucket),
                    "survived": survived,
                    "p_delivered": survived / len(bucket),
                    "mean_delivery_ratio": (
                        sum(ratios) / len(ratios) if ratios else None
                    ),
                    "deadlocks": sum(
                        1 for t in bucket if t["outcome"] == "deadlock"
                    ),
                    "unroutable": sum(
                        1 for t in bucket if t["outcome"] == "unroutable"
                    ),
                    "errors": sum(1 for t in bucket if t["outcome"] == "error"),
                }
            )

        ttd = sorted(
            t["time_to_deadlock"]
            for t in trials
            if t.get("time_to_deadlock") is not None
        )
        recovery_latencies = [
            t["recovery_latency_mean"]
            for t in trials
            if t.get("recovery_latency_mean") is not None
        ]
        out.append(
            {
                "record": "survival",
                "policy": policy,
                "trials": len(trials),
                "curve": curve,
                "time_to_deadlock": (
                    {
                        "n": len(ttd),
                        "p50": _percentile(ttd, 50),
                        "p95": _percentile(ttd, 95),
                        "max": max(ttd),
                    }
                    if ttd
                    else None
                ),
                "recovery": {
                    "aborts": sum(int(t.get("packets_aborted", 0)) for t in trials),
                    "retransmissions": sum(
                        int(t.get("retransmissions", 0)) for t in trials
                    ),
                    "recovered_deadlocks": sum(
                        int(t.get("recovered_deadlocks", 0)) for t in trials
                    ),
                    "latency_p50": _percentile(recovery_latencies, 50),
                    "latency_p95": _percentile(recovery_latencies, 95),
                },
            }
        )
    return out


def load_survival(path) -> list[dict]:
    """Load a chaos campaign JSONL report back into its record dicts.

    Strict (:func:`repro.store.read_jsonl`), and rejects unknown record
    kinds and files whose leading record is not a compatible
    ``campaign-meta``.
    """
    records = read_jsonl(path)
    for index, record in enumerate(records, 1):
        if record.get("record") not in ("campaign-meta", "trial", "survival"):
            raise EbdaError(
                f"{path}: record {index} has unknown record kind {record.get('record')!r}"
            )
    if not records or records[0].get("record") != "campaign-meta":
        raise EbdaError(f"{path}: missing leading campaign-meta record")
    if records[0].get("schema") != CHAOS_SCHEMA:
        raise EbdaError(
            f"{path}: schema {records[0].get('schema')!r} unsupported"
            f" (expected {CHAOS_SCHEMA})"
        )
    return records


def render_survival(records: "list[dict] | str | Path") -> str:
    """Text report of a campaign's survival records (``repro chaos`` output).

    Accepts either loaded records or a path to a campaign JSONL file.
    Survival records are recomputed from the trials when the file carries
    none (e.g. an interrupted campaign's partial report).
    """
    if isinstance(records, (str, Path)):
        records = load_survival(records)
    meta = next((r for r in records if r.get("record") == "campaign-meta"), {})
    trials = _trials(records)
    survival = [r for r in records if r.get("record") == "survival"]
    if not survival and trials:
        survival = survival_curves(trials)

    lines = ["chaos survival report"]
    lines.append(
        f"  campaign {meta.get('token', '?')} — mesh"
        f" {'x'.join(str(k) for k in meta.get('mesh', ())) or '?'},"
        f" routing {meta.get('routing', '?')},"
        f" {len(trials)}/{meta.get('trials', '?')} trials"
        f"{' (interrupted)' if meta.get('interrupted') else ''}"
    )
    if trials:
        counts = {o: sum(1 for t in trials if t["outcome"] == o) for o in OUTCOMES}
        lines.append(
            "  outcomes: "
            + "  ".join(f"{o} {n}" for o, n in counts.items() if n)
        )
    if not survival:
        lines.append("  (no trials recorded)")
        return "\n".join(lines)

    for s in survival:
        lines.append(f"  policy {s['policy']} ({s['trials']} trials):")
        for point in s["curve"]:
            ratio = point["mean_delivery_ratio"]
            delivery = f"{ratio:.3f}" if ratio is not None else "n/a"
            lines.append(
                f"    faults={point['faults']}  trials={point['trials']:3d}"
                f"  P[delivered]={point['p_delivered']:.3f}"
                f"  mean delivery {delivery}"
            )
            extras = [
                f"{name} {point[name]}"
                for name in ("deadlocks", "unroutable", "errors")
                if point[name]
            ]
            if extras:
                lines[-1] += "  (" + ", ".join(extras) + ")"
        ttd = s["time_to_deadlock"]
        if ttd:
            lines.append(
                f"    time-to-deadlock: n={ttd['n']} p50={ttd['p50']:.0f}"
                f" p95={ttd['p95']:.0f} max={ttd['max']} cycles"
            )
        rec = s["recovery"]
        if rec["aborts"] or rec["retransmissions"] or rec["recovered_deadlocks"]:
            line = (
                f"    recovery: aborts={rec['aborts']}"
                f" retx={rec['retransmissions']}"
                f" recovered={rec['recovered_deadlocks']}"
            )
            if rec["latency_p50"] is not None:
                line += (
                    f" latency p50={rec['latency_p50']:.0f}"
                    f" p95={rec['latency_p95']:.0f} cycles"
                )
            lines.append(line)
    return "\n".join(lines)
