"""Span tracing: nested, attributed wall-clock spans over every pipeline.

A :class:`Tracer` records *spans* — named, attributed intervals opened
with the :meth:`Tracer.span` context manager — as a flat strict-JSONL
event stream (one ``span-start`` and one ``span-end`` event per span,
linked by a per-tracer span id and a ``parent`` id for nesting).  The
instrumented subsystems (:class:`~repro.sim.parallel.SweepEngine` stages,
:func:`~repro.fuzz.runner.run_fuzz` batches,
:class:`~repro.chaos.campaign.ChaosCampaign` batches,
:class:`~repro.analyze.engine.Analyzer` lint passes) all trace through
the process-wide *current tracer*, which defaults to the
:data:`NULL_TRACER` — a no-op whose ``span()`` hands back one shared,
reusable context manager, so tracing costs two function calls per span
when disabled and nothing per cycle, ever.

Determinism contract: tracing never feeds back into results.  Span
attributes are observational only — they are not hashed into
:func:`~repro.sim.parallel.cache_key`, never reach
:class:`~repro.sim.stats.SimStats`, and enabling a tracer changes no
simulation outcome (guarded by ``tests/obs/test_determinism.py``).

Worker processes do not inherit the parent's tracer: spans are recorded
at orchestration granularity (stages, batches), so a parallel run traces
the same shape as a serial one.

Usage::

    from repro.obs import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        ...  # instrumented code records spans
    tracer.to_jsonl("spans.jsonl")
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import EbdaError
from repro.store import read_jsonl, write_jsonl

__all__ = [
    "NULL_TRACER",
    "SPAN_SCHEMA",
    "NullTracer",
    "Span",
    "Tracer",
    "check_balance",
    "current_tracer",
    "load_trace",
    "set_tracer",
    "tracing",
]

#: Bump when the span event schema changes shape.
SPAN_SCHEMA = 1

#: Event names a trace file may contain.
_EVENTS = ("span-start", "span-end")


def _check_attrs(attrs: dict) -> dict:
    """Validate span attributes are strict-JSON-safe plain data."""
    try:
        json.dumps(attrs, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise EbdaError(f"span attributes must be strict-JSON-safe: {exc}") from None
    return attrs


class Span:
    """One live span: a context manager that records start/end events.

    Attributes set at open time travel on the ``span-start`` event;
    :meth:`set` adds end-time attributes (outcome counts, hit rates) that
    travel on the ``span-end`` event.
    """

    __slots__ = ("_tracer", "id", "name", "parent", "start", "_end_attrs")

    def __init__(self, tracer: "Tracer", id: int, name: str, parent: int | None) -> None:
        self._tracer = tracer
        self.id = id
        self.name = name
        self.parent = parent
        self.start = 0.0
        self._end_attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the eventual ``span-end`` event."""
        self._end_attrs.update(_check_attrs(attrs))
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and "error" not in self._end_attrs:
            self._end_attrs["error"] = exc_type.__name__
        self._tracer._close(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span(id={self.id}, name={self.name!r}, parent={self.parent})"


class Tracer:
    """Records nested spans as an in-memory strict-JSON event list.

    Parameters
    ----------
    clock:
        Monotonic seconds source (``time.perf_counter`` by default);
        injectable for deterministic tests.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._next_id = 0
        self._stack: list[Span] = []
        self.events: list[dict[str, Any]] = []

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; use as a context manager.

        ``attrs`` must be strict-JSON-safe plain data; they are recorded
        on the ``span-start`` event.
        """
        span = Span(
            self,
            id=self._next_id,
            name=name,
            parent=self._stack[-1].id if self._stack else None,
        )
        self._next_id += 1
        span.start = self._clock()
        self.events.append(
            {
                "event": "span-start",
                "schema": SPAN_SCHEMA,
                "span": span.id,
                "parent": span.parent,
                "name": name,
                "t": span.start,
                "attrs": _check_attrs(attrs),
            }
        )
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        end = self._clock()
        # End any dangling children first so the stream stays balanced
        # even if a span object leaks past its parent's __exit__.
        while self._stack and self._stack[-1] is not span:
            leaked = self._stack.pop()
            leaked.set(leaked=True)
            self._emit_end(leaked, end)
        if self._stack:
            self._stack.pop()
        self._emit_end(span, end)

    def _emit_end(self, span: Span, end: float) -> None:
        self.events.append(
            {
                "event": "span-end",
                "schema": SPAN_SCHEMA,
                "span": span.id,
                "name": span.name,
                "t": end,
                "elapsed_s": end - span.start,
                "attrs": dict(span._end_attrs),
            }
        )

    def __len__(self) -> int:
        return len(self.events)

    def to_jsonl(self, path: "str | Path") -> int:
        """Write every event as strict JSON Lines; returns the line count."""
        return write_jsonl(path, self.events)


class _NullSpan:
    """The shared no-op span: enters, exits, and swallows attributes."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every ``span()`` is the same reusable no-op."""

    enabled = False
    events: tuple = ()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def to_jsonl(self, path: "str | Path") -> int:
        raise EbdaError("the null tracer records nothing; install a Tracer first")

    def __len__(self) -> int:
        return 0


#: The process-wide default: tracing disabled, zero allocation per span.
NULL_TRACER = NullTracer()

_current: "Tracer | NullTracer" = NULL_TRACER


def current_tracer() -> "Tracer | NullTracer":
    """The tracer instrumented code records into (default: disabled)."""
    return _current


def set_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Install the process-wide tracer; returns the previous one.

    ``None`` restores the disabled default.
    """
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(tracer: "Tracer | NullTracer") -> Iterator["Tracer | NullTracer"]:
    """Scope ``tracer`` as the current tracer, restoring on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def load_trace(path: "str | Path") -> list[dict[str, Any]]:
    """Load and validate a span JSONL file; raises :class:`EbdaError` on
    any malformed line (wrong schema, unknown event, missing field)."""
    events = read_jsonl(path)
    for index, event in enumerate(events, start=1):
        if event.get("schema") != SPAN_SCHEMA:
            raise EbdaError(
                f"{path}: record {index}: unsupported span schema"
                f" {event.get('schema')!r} (expected {SPAN_SCHEMA})"
            )
        kind = event.get("event")
        if kind not in _EVENTS:
            raise EbdaError(f"{path}: record {index}: unknown event kind {kind!r}")
        required = (
            ("span", "parent", "name", "t", "attrs")
            if kind == "span-start"
            else ("span", "name", "t", "elapsed_s", "attrs")
        )
        missing = [key for key in required if key not in event]
        if missing:
            raise EbdaError(
                f"{path}: record {index}: {kind} missing field(s): {', '.join(missing)}"
            )
        if not isinstance(event["attrs"], dict):
            raise EbdaError(f"{path}: record {index}: attrs must be a JSON object")
    return events


def check_balance(events: list[dict[str, Any]]) -> None:
    """Assert the event stream is *balanced*: every ``span-start`` has
    exactly one later ``span-end``, ids are unique, parents are open at
    their children's start.  Raises :class:`EbdaError` on violation."""
    open_spans: dict[int, dict] = {}
    closed: set[int] = set()
    for event in events:
        sid = event["span"]
        if event["event"] == "span-start":
            if sid in open_spans or sid in closed:
                raise EbdaError(f"span {sid} started twice")
            parent = event["parent"]
            if parent is not None and parent not in open_spans:
                raise EbdaError(
                    f"span {sid} ({event['name']!r}) started under parent"
                    f" {parent}, which is not open"
                )
            open_spans[sid] = event
        else:
            if sid not in open_spans:
                raise EbdaError(f"span {sid} ended without a matching start")
            start = open_spans.pop(sid)
            if start["name"] != event["name"]:
                raise EbdaError(
                    f"span {sid} started as {start['name']!r} but ended as"
                    f" {event['name']!r}"
                )
            if event["t"] < start["t"]:
                raise EbdaError(f"span {sid} ends before it starts")
            closed.add(sid)
    if open_spans:
        names = ", ".join(repr(e["name"]) for e in open_spans.values())
        raise EbdaError(f"{len(open_spans)} span(s) never ended: {names}")
