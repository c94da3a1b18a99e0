"""Persistence primitives shared by every on-disk artifact of the library.

The result cache, chaos checkpoints, fuzz corpus, run ledger, heartbeats,
telemetry, span traces and chaos reports each keep their own addressing
and validation; this module owns the machinery they share: the canonical
JSON every digest is taken over, the truncated sha256 itself, atomic tmp +
``os.replace`` writes (a reader sees the old content or the new, never a
torn file), the strict JSON Lines exporter, the strict readers every
artifact loader goes through, and the default cache root.  It imports
nothing else from the package but :mod:`repro.errors`, so resolving a
directory never loads the simulator.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable
from pathlib import Path
from typing import Any, NoReturn

from repro.errors import EbdaError

__all__ = [
    "atomic_write",
    "canonical_json",
    "default_cache_dir",
    "digest",
    "read_json",
    "read_jsonl",
    "write_jsonl",
]


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
    The file is replaced through :func:`atomic_write`.
    """
    lines = [json.dumps(record, allow_nan=False) + "\n" for record in records]
    atomic_write(path, "".join(lines))
    return len(lines)


def _reject_constant(token: str) -> NoReturn:
    raise ValueError(f"non-finite constant {token}")


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise EbdaError(f"cannot read {path}: file not found") from None
    except OSError as exc:
        raise EbdaError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_object(data: bytes, path: str | Path, lineno: int) -> dict[str, Any]:
    try:
        value = json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:
        # A decode error inside a multi-line document knows its own line.
        lineno += getattr(exc, "lineno", 1) - 1
        raise EbdaError(
            f"{path}:{lineno}: not valid JSON (strict JSON, no NaN/Infinity): {exc}"
        ) from None
    if not isinstance(value, dict):
        raise EbdaError(f"{path}:{lineno}: not a JSON object")
    return value


def read_json(path: str | Path) -> dict[str, Any]:
    """The one JSON object stored in ``path``, read strictly.

    Every failure is an :class:`~repro.errors.EbdaError` naming the path:
    an unreadable file, invalid JSON, a ``NaN``/``Infinity`` token, or a
    document that is not an object.
    """
    return _parse_object(_read_bytes(path), path, 1)


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Every JSON object of a JSON Lines file, read strictly, in file order.

    Blank lines are skipped; any other line must hold one strict JSON
    object, or an :class:`~repro.errors.EbdaError` names ``path:lineno``.
    """
    return [
        _parse_object(line, path, lineno)
        for lineno, line in enumerate(_read_bytes(path).splitlines(), 1)
        if line.strip()
    ]


def default_cache_dir() -> Path:
    """``$REPRO_EBDA_CACHE_DIR``, else ``~/.cache/repro-ebda``."""
    env = os.environ.get("REPRO_EBDA_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-ebda"
