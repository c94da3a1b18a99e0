"""The run ledger: append-only, content-addressed provenance for every run.

Each ``run_point`` / ``sweep`` / ``fuzz`` / ``chaos`` / ``lint`` /
``certify`` / ``exists`` / ``experiment`` invocation can append one
:class:`RunRecord` to an on-disk :class:`RunLedger` — a single
append-only JSON Lines file.  A record splits into two halves:

* **identity** — what was run: the record kind, the spec token (design /
  routing / campaign token), backend, seed, and the library + Python
  versions.  :attr:`RunRecord.run_id` is a content digest over exactly
  these fields, so the *same run* always lands under the *same id*;
* **outcome** — what happened: a one-word outcome, a digest of the full
  result payload, and the wall time.

That split is what makes drift detectable: two records with the same
identity *minus version* but different outcome digests mean an upgrade
changed a result — :meth:`RunLedger.drift` (surfaced as ``repro runs
diff``) finds exactly those pairs.  Conversely rerunning the same version
must reproduce the same digest, which ``tests/obs/test_determinism.py``
requires.

The ledger is **off by default**.  It activates when the
``REPRO_EBDA_LEDGER_DIR`` environment variable names a directory or when
:func:`set_ledger` installs one explicitly (the CLI's ``--ledger`` flag
does this); :func:`record_run` is a no-op otherwise, so library users
who never opt in never touch the filesystem.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable

from repro.errors import EbdaError
from repro.store import canonical_json, default_cache_dir, digest, read_jsonl

__all__ = [
    "LEDGER_SCHEMA",
    "RunLedger",
    "RunRecord",
    "current_ledger",
    "default_ledger_dir",
    "outcome_digest",
    "record_run",
    "set_ledger",
    "versions",
]

#: Bump when the ledger record schema changes shape.
LEDGER_SCHEMA = 1

#: Record kinds the ledger accepts (one per pipeline entry point).
RUN_KINDS = ("run_point", "sweep", "fuzz", "chaos", "lint", "certify", "exists", "experiment")


def default_ledger_dir() -> Path:
    """``$REPRO_EBDA_LEDGER_DIR``, else ``<cache-dir>/ledger``."""
    env = os.environ.get("REPRO_EBDA_LEDGER_DIR")
    if env:
        return Path(env)
    return default_cache_dir() / "ledger"


def versions() -> dict[str, str]:
    """The version stamp every record carries."""
    import repro

    return {"repro": repro.__version__, "python": platform.python_version()}


def outcome_digest(payload: Any) -> str:
    """16-hex content digest of a strict-JSON-safe outcome payload."""
    try:
        material = canonical_json(payload)
    except (TypeError, ValueError) as exc:
        raise EbdaError(f"outcome payload must be strict-JSON-safe: {exc}") from None
    return digest(material, 16)


@dataclass(frozen=True)
class RunRecord:
    """One ledger line: a run's identity plus its outcome."""

    kind: str
    #: The run's subject: a spec token, campaign token, or design list.
    spec: str
    backend: str = "reference"
    seed: int = 0
    #: One-word outcome: ``ok``, ``deadlock``, ``disagreement``, ...
    outcome: str = "ok"
    #: 16-hex digest of the full result payload (:func:`outcome_digest`).
    digest: str = ""
    wall_s: float = 0.0
    versions: dict = field(default_factory=versions)
    #: Unix seconds at append time (not part of the identity).
    created_at: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in RUN_KINDS:
            raise EbdaError(
                f"unknown run kind {self.kind!r}; known kinds:"
                f" {', '.join(RUN_KINDS)}"
            )

    @property
    def run_id(self) -> str:
        """16-hex digest of the identity half (kind/spec/backend/seed/versions)."""
        material = canonical_json(
            {
                "schema": LEDGER_SCHEMA,
                "kind": self.kind,
                "spec": self.spec,
                "backend": self.backend,
                "seed": self.seed,
                "versions": self.versions,
            }
        )
        return digest(material, 16)

    @property
    def identity(self) -> tuple:
        """What the run *was*, version-independent (the drift group key)."""
        return (self.kind, self.spec, self.backend, self.seed)

    def to_dict(self) -> dict:
        return {
            "schema": LEDGER_SCHEMA,
            "record": "run",
            "run_id": self.run_id,
            "kind": self.kind,
            "spec": self.spec,
            "backend": self.backend,
            "seed": self.seed,
            "outcome": self.outcome,
            "digest": self.digest,
            "wall_s": self.wall_s,
            "versions": dict(self.versions),
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        if data.get("schema") != LEDGER_SCHEMA:
            raise EbdaError(
                f"unsupported ledger schema {data.get('schema')!r}"
                f" (expected {LEDGER_SCHEMA})"
            )
        if data.get("record") != "run":
            raise EbdaError(f"not a run record: {data.get('record')!r}")
        known = {f.name for f in fields(cls)}
        payload = {k: v for k, v in data.items() if k in known}
        missing = known - set(payload)
        if missing:
            raise EbdaError(
                f"run record missing field(s): {', '.join(sorted(missing))}"
            )
        record = cls(**payload)
        stored = data.get("run_id")
        if stored is not None and stored != record.run_id:
            raise EbdaError(
                f"run record id mismatch: stored {stored}, computed"
                f" {record.run_id} (ledger line edited?)"
            )
        return record


class RunLedger:
    """An append-only JSONL file of :class:`RunRecord` lines.

    Appends are single ``write()`` calls of one line opened in append
    mode, so concurrent writers interleave whole records, never bytes.
    """

    def __init__(self, directory: "str | Path | None" = None) -> None:
        self.directory = Path(directory) if directory else default_ledger_dir()
        self.path = self.directory / "ledger.jsonl"

    def append(self, record: RunRecord) -> RunRecord:
        """Append one record (stamping ``created_at`` if unset)."""
        if not record.created_at:
            object.__setattr__(record, "created_at", time.time())
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(canonical_json(record.to_dict()) + "\n")
        return record

    def records(self) -> list[RunRecord]:
        """Every record, in append order; corrupt lines raise."""
        if not self.path.is_file():
            return []
        return [RunRecord.from_dict(data) for data in read_jsonl(self.path)]

    def __len__(self) -> int:
        return len(self.records())

    def find(self, prefix: str) -> list[RunRecord]:
        """Records whose ``run_id`` starts with ``prefix`` (append order)."""
        return [r for r in self.records() if r.run_id.startswith(prefix)]

    def drift(self) -> list[dict]:
        """Identity groups whose outcome digest changed between versions.

        Returns one row per drifting identity:
        ``{"kind", "spec", "backend", "seed", "variants": [{versions,
        digest, outcome, run_id}, ...]}`` — ``variants`` holds one entry
        per distinct (versions, digest) pair, in first-seen order.
        Same-version digest flips are included too: those are
        *nondeterminism*, which is worse than drift.  ``interrupted``
        records are skipped: a run its budget cut digests only the part
        it ran, so it cannot be compared with a complete one.
        """
        groups: dict[tuple, list[RunRecord]] = {}
        for record in self.records():
            if record.outcome != "interrupted":
                groups.setdefault(record.identity, []).append(record)
        rows = []
        for identity, members in groups.items():
            digests = {m.digest for m in members}
            if len(digests) <= 1:
                continue
            variants: list[dict] = []
            seen: set[tuple] = set()
            for m in members:
                key = (canonical_json(m.versions), m.digest)
                if key in seen:
                    continue
                seen.add(key)
                variants.append(
                    {
                        "versions": dict(m.versions),
                        "digest": m.digest,
                        "outcome": m.outcome,
                        "run_id": m.run_id,
                    }
                )
            kind, spec, backend, seed = identity
            rows.append(
                {
                    "kind": kind,
                    "spec": spec,
                    "backend": backend,
                    "seed": seed,
                    "variants": variants,
                }
            )
        return rows


_current: RunLedger | None = None


def current_ledger() -> RunLedger | None:
    """The installed ledger, else one from ``$REPRO_EBDA_LEDGER_DIR``, else None.

    The environment variable is consulted on every call (not cached), so
    tests and CI can point different phases at different ledgers.
    """
    if _current is not None:
        return _current
    env = os.environ.get("REPRO_EBDA_LEDGER_DIR")
    if env:
        return RunLedger(env)
    return None


def set_ledger(ledger: "RunLedger | str | Path | None") -> RunLedger | None:
    """Install the process-wide ledger (a path builds one); returns the
    previous explicitly-installed ledger.  ``None`` uninstalls."""
    global _current
    previous = _current
    if ledger is None or isinstance(ledger, RunLedger):
        _current = ledger
    else:
        _current = RunLedger(ledger)
    return previous


def record_run(
    kind: str,
    spec: str,
    *,
    backend: str = "reference",
    seed: int = 0,
    outcome: str = "ok",
    payload: Any = None,
    wall_s: float = 0.0,
) -> RunRecord | None:
    """Append a run to the current ledger; no-op (returns None) when no
    ledger is configured.  ``payload`` is digested, not stored."""
    ledger = current_ledger()
    if ledger is None:
        return None
    record = RunRecord(
        kind=kind,
        spec=spec,
        backend=backend,
        seed=seed,
        outcome=outcome,
        digest=outcome_digest(payload) if payload is not None else "",
        wall_s=wall_s,
    )
    return ledger.append(record)
