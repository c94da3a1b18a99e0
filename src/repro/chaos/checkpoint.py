"""Content-addressed campaign checkpoints: kill a campaign, resume it byte-identically.

A chaos campaign is a long sequence of independent trials; losing an hour
of Monte-Carlo work to a pre-empted CI runner would make large campaigns
impractical.  :class:`CampaignCheckpoint` persists each finished trial as
its canonical JSON bytes under a file name that embeds both the trial
index and a digest of those bytes:

    <base>/<campaign-token>/trial-00042-<digest12>.json

Three properties follow directly from that layout:

* **resume is byte-identical** — a resumed campaign re-emits the stored
  bytes verbatim instead of re-simulating, so the final JSONL report is
  indistinguishable from an uninterrupted run;
* **corruption is self-detecting** — a truncated or edited file no longer
  matches the digest in its own name and is discarded (the trial simply
  re-runs);
* **campaigns cannot collide** — the campaign token hashes the full
  :class:`~repro.chaos.campaign.CampaignConfig` plus the schema and
  library version, so a config tweak resumes nothing stale.

Writes go through :func:`repro.store.atomic_write`, so a kill mid-write
leaves at worst an ignorable tmp file.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.store import atomic_write, digest

__all__ = ["CampaignCheckpoint", "record_digest"]

_TRIAL_RE = re.compile(r"^trial-(\d{5})-([0-9a-f]{12})\.json$")


def record_digest(data: bytes) -> str:
    """The 12-hex content digest a trial file name embeds."""
    return digest(data, 12)


def _read_intact(path: Path) -> "tuple[int, bytes] | None":
    """``(index, bytes)`` of a trial file whose content matches the digest
    in its name, or None for tmp files, torn writes and manual edits."""
    match = _TRIAL_RE.match(path.name)
    if not match:
        return None
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if record_digest(data) != match.group(2):
        return None
    return int(match.group(1)), data


class CampaignCheckpoint:
    """On-disk store of finished trial records for one campaign.

    Parameters
    ----------
    base:
        Checkpoint root shared by all campaigns (each campaign owns the
        ``<base>/<token>`` subdirectory).
    token:
        The campaign's identity token
        (:meth:`repro.chaos.campaign.CampaignConfig.token`).
    """

    def __init__(self, base: "Path | str", token: str) -> None:
        self.base = Path(base)
        self.token = token
        self.directory = self.base / token

    def store(self, index: int, data: bytes) -> Path:
        """Persist one trial's canonical record bytes; returns its path.

        Idempotent: storing the same bytes twice is a no-op, storing
        *different* bytes for an index that already holds a record raises
        ``ValueError`` — a determinism violation worth failing loudly on.
        """
        if index < 0 or index > 99999:
            raise ValueError(f"trial index out of range: {index}")
        existing = self._load_index(index)
        if existing is not None:
            if existing != data:
                raise ValueError(
                    f"checkpoint {self.token} already holds a different record"
                    f" for trial {index}: the campaign is not deterministic"
                )
            return self._path(index, record_digest(data))
        return atomic_write(self._path(index, record_digest(data)), data)

    def completed(self) -> dict[int, bytes]:
        """Every intact stored trial: index -> canonical record bytes.

        Files whose content no longer matches the digest in their name
        (torn writes, manual edits) are silently dropped so the trial
        re-runs instead of poisoning the resumed report.
        """
        try:
            paths = sorted(self.directory.iterdir())
        except OSError:
            return {}
        intact = (_read_intact(path) for path in paths)
        return dict(item for item in intact if item is not None)

    def _load_index(self, index: int) -> "bytes | None":
        """The intact stored bytes for one trial index, or None."""
        for path in self.directory.glob(f"trial-{index:05d}-*.json"):
            item = _read_intact(path)
            if item is not None:
                return item[1]
        return None

    def _path(self, index: int, digest: str) -> Path:
        return self.directory / f"trial-{index:05d}-{digest}.json"

    def __len__(self) -> int:
        return len(self.completed())

    def __contains__(self, index: int) -> bool:
        return self._load_index(index) is not None

    def clear(self) -> int:
        """Delete every stored trial; returns the number removed."""
        removed = 0
        try:
            entries = list(self.directory.iterdir())
        except OSError:
            return 0
        for path in entries:
            if _TRIAL_RE.match(path.name) or ".tmp." in path.name:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return f"CampaignCheckpoint({self.directory}, {len(self)} trials)"
