"""Persistence primitives shared by every on-disk artifact of the library.

The result cache, chaos checkpoints, fuzz corpus, run ledger and heartbeat
files each keep their own addressing and validation; this module owns the
machinery they share: the canonical JSON every digest is taken over, the
truncated sha256 itself, atomic tmp + ``os.replace`` writes (a reader sees
the old content or the new, never a torn file), the strict JSON Lines
exporter, and the default cache root.  It imports nothing else from the
package, so resolving a directory never loads the simulator.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable
from pathlib import Path
from typing import Any

__all__ = ["atomic_write", "canonical_json", "default_cache_dir", "digest", "write_jsonl"]


def canonical_json(obj: Any) -> str:
    """The serialization every digest is taken over: sorted keys, no
    whitespace, ASCII-only, NaN/inf rejected; equal values give equal text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(data: str | bytes, hexchars: int) -> str:
    """The first ``hexchars`` hex characters of sha256 over ``data`` (UTF-8 for text)."""
    raw = data.encode() if isinstance(data, str) else data
    return hashlib.sha256(raw).hexdigest()[:hexchars]


def atomic_write(path: str | Path, data: str | bytes) -> Path:
    """Replace ``path``'s content with ``data`` atomically; returns the path.

    On any failure the previous content stays intact and no tmp file stays.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write one strict JSON value per line; returns the line count.

    Keys keep insertion order; a NaN raises before the file is opened.
    """
    lines = [json.dumps(record, allow_nan=False) + "\n" for record in records]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(lines))
    return len(lines)


def default_cache_dir() -> Path:
    """``$REPRO_EBDA_CACHE_DIR``, else ``~/.cache/repro-ebda``."""
    env = os.environ.get("REPRO_EBDA_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-ebda"
