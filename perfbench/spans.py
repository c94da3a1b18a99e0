"""Span recording for the benchmark's traced runs.

Spans are opened from the benchmark's own files, around calls into the
program's public functions, with :class:`repro.obs.Tracer`.  Where a
layer is only reachable from inside another public call (the wires a
CDG build enumerates, the traffic generator a simulation polls), the
benchmark swaps the module attribute the caller looks up for a wrapper
that opens a span and delegates; :func:`patched` restores every swap on
exit.  Untraced runs use :data:`repro.obs.NULL_TRACER` and install no
wrapper, so the end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs import NULL_TRACER, Tracer


class Probe:
    """The span sink of one pass: a fresh :class:`Tracer`, or the no-op."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.tracer = Tracer() if traced else NULL_TRACER

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def wrap(self, name: str, fn: Callable, count: "Callable | None" = None) -> Callable:
        """``fn`` inside a span named ``name``; ``count(result)`` -> ``count`` attr."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.set(count=count(result))
                return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time of its children."""
        return summarize(self.tracer.events)[0]


def summarize(events: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """(self seconds by span name, summed ``count`` attrs by span name)."""
    names: dict[int, str] = {}
    parents: dict[int, "int | None"] = {}
    elapsed: dict[int, float] = {}
    counts: dict[str, float] = defaultdict(float)
    for event in events:
        if event["event"] == "span-start":
            names[event["span"]] = event["name"]
            parents[event["span"]] = event["parent"]
        else:
            elapsed[event["span"]] = event["elapsed_s"]
            if "count" in event["attrs"]:
                counts[event["name"]] += event["attrs"]["count"]
    own = dict(elapsed)
    for span, parent in parents.items():
        if parent is not None:
            own[parent] -= elapsed[span]
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in own.items():
        totals[names[span]] += seconds
    return dict(totals), dict(counts)


@contextmanager
def patched(*swaps: tuple[object, str, Callable]) -> Iterator[None]:
    """Temporarily replace ``owner.attribute`` with ``make(original)``."""
    originals = [(owner, attribute, vars(owner)[attribute]) for owner, attribute, _ in swaps]
    try:
        for owner, attribute, make in swaps:
            setattr(owner, attribute, make(getattr(owner, attribute)))
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)
