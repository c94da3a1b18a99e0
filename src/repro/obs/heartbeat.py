"""Live campaign progress: atomic heartbeat files and the ``repro top`` view.

Long-running campaigns (chaos sweeps, fuzzing runs, big rate sweeps)
write one *heartbeat file* each — a single strict-JSON object rewritten
through :func:`repro.store.atomic_write` after every batch.  A reader
can therefore never observe a torn heartbeat, and a crashed campaign
leaves its last beat behind with a growing staleness age instead of a
corrupt file.

``repro top`` tails a heartbeat directory (default
``<cache-dir>/heartbeats``) and renders every campaign's progress bar,
rate, ETA and staleness — the live-fleet view the ROADMAP's distributed
campaign direction needs.

Heartbeats carry wall-clock state by design (ETA is the whole point);
they live next to, not inside, the deterministic artifacts — trial
records, ledgers and reports never embed heartbeat data.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Iterator

from repro.errors import EbdaError
from repro.store import atomic_write, canonical_json, default_cache_dir, read_json

__all__ = [
    "HEARTBEAT_SCHEMA",
    "HeartbeatWriter",
    "default_heartbeat_dir",
    "load_heartbeat",
    "read_heartbeats",
    "render_top",
]

#: Bump when the heartbeat record schema changes shape.
HEARTBEAT_SCHEMA = 1

#: A heartbeat older than this (seconds) renders as stale in ``repro top``.
STALE_AFTER_S = 30.0


def default_heartbeat_dir() -> Path:
    """``$REPRO_EBDA_HEARTBEAT_DIR``, else ``<cache-dir>/heartbeats``."""
    env = os.environ.get("REPRO_EBDA_HEARTBEAT_DIR")
    if env:
        return Path(env)
    return default_cache_dir() / "heartbeats"


class HeartbeatWriter:
    """Writes one campaign's heartbeat file atomically on every beat.

    Parameters
    ----------
    id:
        Stable campaign identity (e.g. the chaos campaign token, or
        ``fuzz-<seed>``); names the file ``<id>.json``.
    kind:
        Campaign kind (``chaos``, ``fuzz``, ``sweep``).
    total:
        Total work units (trials, points); ``done`` counts toward it.
    directory:
        Defaults to :func:`default_heartbeat_dir`.
    clock:
        Injectable wall-clock (``time.time``) for deterministic tests.
    """

    def __init__(
        self,
        id: str,
        kind: str,
        total: int,
        directory: "str | Path | None" = None,
        clock=time.time,
    ) -> None:
        safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in id)
        if not safe:
            raise EbdaError(f"heartbeat id {id!r} has no filename-safe characters")
        self.id = safe
        self.kind = kind
        self.total = total
        self.directory = Path(directory) if directory else default_heartbeat_dir()
        self.path = self.directory / f"{self.id}.json"
        self._clock = clock
        self._started = clock()
        self.beats = 0

    def beat(self, done: int, *, batch: int | None = None, **extra: Any) -> dict:
        """Rewrite the heartbeat file of a ``running`` campaign; returns the
        record written.

        ``extra`` fields (disagreements so far, outcome counts) must be
        strict-JSON-safe; they land at the top level of the record.
        """
        return self._write(done, batch, "running", extra)

    def finish(self, done: int, *, interrupted: bool = False, **extra: Any) -> dict:
        """Final beat: marks the campaign ``done``, or ``interrupted`` when
        its budget cut it short."""
        return self._write(done, None, "interrupted" if interrupted else "done", extra)

    def _write(self, done: int, batch: int | None, state: str, extra: dict) -> dict:
        now = self._clock()
        elapsed = now - self._started
        eta: float | None = None
        if 0 < done < self.total and elapsed > 0:
            eta = elapsed / done * (self.total - done)
        elif done >= self.total:
            eta = 0.0
        record = {
            "schema": HEARTBEAT_SCHEMA,
            "record": "heartbeat",
            "id": self.id,
            "kind": self.kind,
            "state": state,
            "pid": os.getpid(),
            "done": done,
            "total": self.total,
            "batch": batch,
            "elapsed_s": elapsed,
            "eta_s": eta,
            "started_at": self._started,
            "updated_at": now,
            **extra,
        }
        try:
            text = canonical_json(record)
        except (TypeError, ValueError) as exc:
            raise EbdaError(f"heartbeat fields must be strict-JSON-safe: {exc}") from None
        atomic_write(self.path, text)
        self.beats += 1
        return record


_REQUIRED = (
    "id", "kind", "state", "done", "total", "elapsed_s", "eta_s", "updated_at",
)


def load_heartbeat(path: "str | Path") -> dict:
    """Load and validate one heartbeat file; raises :class:`EbdaError` on
    schema violations."""
    record = read_json(path)
    if record.get("record") != "heartbeat":
        raise EbdaError(f"{path}: not a heartbeat record")
    if record.get("schema") != HEARTBEAT_SCHEMA:
        raise EbdaError(
            f"{path}: unsupported heartbeat schema {record.get('schema')!r}"
            f" (expected {HEARTBEAT_SCHEMA})"
        )
    missing = [key for key in _REQUIRED if key not in record]
    if missing:
        raise EbdaError(f"{path}: heartbeat missing field(s): {', '.join(missing)}")
    return record


def read_heartbeats(directory: "str | Path | None" = None) -> Iterator[dict]:
    """Every readable heartbeat in ``directory``, most recent first.

    Unreadable or torn files are skipped (a writer may be mid-rename);
    ``.tmp.*`` leftovers are ignored.
    """
    directory = Path(directory) if directory else default_heartbeat_dir()
    records = []
    if directory.is_dir():
        for path in directory.glob("*.json"):
            try:
                records.append(load_heartbeat(path))
            except EbdaError:
                continue
    records.sort(key=lambda r: r.get("updated_at", 0.0), reverse=True)
    return iter(records)


def _bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "?" * width
    filled = min(width, round(width * done / total))
    return "#" * filled + "." * (width - filled)


def _fmt_eta(eta: "float | None") -> str:
    if eta is None:
        return "  --"
    if eta >= 3600:
        return f"{eta / 3600:.1f}h"
    if eta >= 60:
        return f"{eta / 60:.1f}m"
    return f"{eta:.0f}s"


def render_top(
    records: "list[dict] | None" = None,
    *,
    directory: "str | Path | None" = None,
    now: "float | None" = None,
    stale_after_s: float = STALE_AFTER_S,
) -> str:
    """The ``repro top`` screen: one row per campaign heartbeat.

    ``records`` defaults to :func:`read_heartbeats`; pass explicitly for
    deterministic rendering in tests.
    """
    if records is None:
        records = list(read_heartbeats(directory))
    if not records:
        return "(no campaign heartbeats)"
    now = time.time() if now is None else now
    lines = [
        f"{'ID':20s} {'KIND':6s} {'PROGRESS':32s} {'RATE':>9s}"
        f" {'ELAPSED':>8s} {'ETA':>6s}  STATE"
    ]
    for r in records:
        done, total = r["done"], r["total"]
        elapsed = r["elapsed_s"]
        rate = f"{done / elapsed:.1f}/s" if elapsed >= 0.1 and done else "--"
        age = now - r["updated_at"]
        state = r["state"]
        if state == "running" and age > stale_after_s:
            state = f"stale {age:.0f}s"
        extra = {
            k: v
            for k, v in r.items()
            if k not in _REQUIRED
            and k not in ("schema", "record", "pid", "batch", "started_at")
        }
        suffix = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
            if extra
            else ""
        )
        lines.append(
            f"{r['id'][:20]:20s} {r['kind'][:6]:6s}"
            f" [{_bar(done, total)}] {done}/{total}"
            f" {rate:>9s} {elapsed:7.1f}s {_fmt_eta(r['eta_s']):>6s}"
            f"  {state}{suffix}"
        )
    return "\n".join(lines)
