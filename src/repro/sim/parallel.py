"""Parallel sweep engine with content-addressed result caching.

The evaluation surface (V2/V3 rate sweeps, the V7 chaos sweep, turn-model
searches) is embarrassingly parallel: every simulation point is fully
described by ``(topology, routing spec, RunConfig, class rule)`` and runs
independently.  :class:`SweepEngine` fans those points out over a
:class:`~concurrent.futures.ProcessPoolExecutor` — with a deterministic
in-process fallback for ``jobs=1`` and for unpicklable work — and
memoises finished points in an on-disk :class:`ResultCache` so repeated
sweeps and CI benchmark runs skip already-computed simulations.

Determinism contract: every point carries its own seeds, so ``jobs=4``
produces **bit-identical** :class:`~repro.sim.stats.SimStats` to
``jobs=1`` for the same configs, and a cache-loaded point compares equal
to a freshly simulated one.

Cache-key contract (what invalidates a cached point):

* the topology (``repr`` + node count + a digest of the full link list);
* the routing spec token (name, registered factory, or design notation);
* the class-rule token;
* every :class:`~repro.sim.runner.RunConfig` field (callable fields via
  their spec tokens; fault schedules event by event) — except
  ``backend``, which is deliberately excluded: every registered backend
  is cycle-exact (:mod:`repro.sim.backend`), so a point simulated by one
  backend is a valid hit for the other — and the observers ``metrics``,
  ``trace`` and ``sample_every`` (an observed point is never cached);
* the library version (:data:`repro.__version__`) and the cache schema.

A point whose spec has no stable token (a lambda pattern, a closure
factory) is simply *uncacheable*: it always simulates, it is never
written, and it can never produce a stale hit.
"""

from __future__ import annotations

import json
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.obs.metrics import REGISTRY
from repro.obs.trace import current_tracer
from repro.routing.base import RoutingFunction
from repro.sim.backend import check_run_config, resolve_backend
from repro.sim.runner import RunConfig, RunResult, _kernel_key, run_points
from repro.sim.specs import resolve_routing_factory, spec_token
from repro.sim.stats import SimStats
from repro.store import atomic_write, default_cache_dir, digest
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes

__all__ = [
    "CACHE_SCHEMA",
    "PointOutcome",
    "ResultCache",
    "SweepEngine",
    "SweepReport",
    "cache_key",
    "default_cache_dir",
    "point_token",
    "sweep_token",
    "topology_token",
]

#: Bump to invalidate every existing cache entry after a format change.
CACHE_SCHEMA = 1


def topology_token(topology: Topology) -> str:
    """A content-addressed token for a concrete topology
    (:attr:`Topology.content_token <repro.topology.base.Topology.content_token>`)."""
    return topology.content_token


def _routing_token(routing: object) -> str | None:
    """Token for the sweep's routing argument (spec, factory or instance)."""
    token = spec_token("routing", routing)
    if token is not None:
        return token
    if isinstance(routing, RoutingFunction):
        cls = type(routing)
        parts = [f"obj:{cls.__module__}.{cls.__qualname__}", f"name={routing.name}"]
        design = getattr(routing, "design", None)
        if design is not None:
            parts.append(f"design={design.arrow_notation()}")
        return "|".join(parts)
    return None


#: Token for a value without a stable one: None (no token) or a stand-in.
_Fallback = Callable[[object], "str | None"]


def _no_token(value: object) -> None:
    return None


def _name_token(value: object) -> str:
    """Stand-in token for a spec without a stable one: its name."""
    name = getattr(value, "__qualname__", None) or type(value).__name__
    return f"unhashable:{name}"


#: Fields that observe a point without changing its result: a point's
#: identity is computed as if they held their defaults.
_OBSERVERS = ("metrics", "sample_every")


def _config_token(config: RunConfig, fallback: _Fallback = _no_token) -> str | None:
    """Canonical string of every RunConfig field, or None when a field has
    no stable token and ``fallback`` gives none either."""
    parts: list[str] = []
    for f in fields(config):
        if f.name in ("backend", "trace"):
            # Backends are cycle-exact (repro.sim.backend): identical
            # stats either way, so keys stay backend-agnostic and the
            # engines share cache entries.  ``trace`` only observes.
            continue
        value = f.default if f.name in _OBSERVERS else getattr(config, f.name)
        if f.name in ("pattern", "selection", "metrics", "workload"):
            token = spec_token(f.name, value)
        elif f.name == "routing_factory":
            token = spec_token("routing", value)
        elif f.name == "faults":
            token = (
                "none"
                if value is None
                else f"seed={value.seed};" + ";".join(repr(e) for e in value.events)
            )
        else:
            token = repr(value)
        if token is None:
            token = fallback(value)
            if token is None:
                return None
        parts.append(f"{f.name}={token}")
    return "|".join(parts)


def _point_material(
    topology: Topology,
    routing: object,
    config: RunConfig,
    rule: ClassRule,
    fallback: _Fallback = _no_token,
) -> str | None:
    routing_token = _routing_token(routing) or fallback(routing)
    config_token = _config_token(config, fallback)
    rule_token = spec_token("rule", rule) or fallback(rule)
    if routing_token is None or config_token is None or rule_token is None:
        return None
    return "\n".join(
        [
            f"topology={topology_token(topology)}",
            f"routing={routing_token}",
            f"rule={rule_token}",
            f"config={config_token}",
        ]
    )


def _with_rates(point: str, rates: Sequence[float]) -> str:
    return digest(
        f"point={point}\nrates={','.join(repr(float(r)) for r in rates)}", 16
    )


def point_token(
    topology: Topology,
    routing: object,
    config: RunConfig,
    rule: ClassRule = no_classes,
) -> str | None:
    """A *version-free* 16-hex identity for one point, or None when the
    point has no stable spec.

    This is the run ledger's spec token (:mod:`repro.obs.ledger`): two
    library versions running the same point share it, which is exactly
    what lets ``repro runs diff`` detect cross-version result drift.
    Observers (``metrics``, ``trace``, ``sample_every``) do not enter
    it, so a metered point shares its identity with the plain one.
    The result cache builds :func:`cache_key` on top by adding the cache
    schema and library version.
    """
    material = _point_material(topology, routing, config, rule)
    return None if material is None else digest(material, 16)


def sweep_token(
    topology: Topology,
    routing: object,
    rates: Sequence[float],
    config: RunConfig,
    rule: ClassRule = no_classes,
) -> str | None:
    """A version-free 16-hex identity for a whole rate sweep, or None."""
    base = point_token(topology, routing, config, rule)
    return None if base is None else _with_rates(base, rates)


def _ledger_spec(
    topology: Topology,
    routing: object,
    config: RunConfig,
    rule: ClassRule = no_classes,
    rates: Sequence[float] | None = None,
) -> str:
    """The run ledger's spec for a point, or for a sweep given ``rates``.

    It is :func:`point_token` / :func:`sweep_token` when those are stable.

    A spec without a stable token (a lambda factory or pattern) is named
    ``unhashable:<16-hex>``, digested from every other field's token plus
    the unstable values' names, so unrelated runs do not share it.
    """
    token = point_token(topology, routing, config, rule)
    prefix = ""
    if token is None:
        material = _point_material(topology, routing, config, rule, _name_token)
        token, prefix = digest(material, 16), "unhashable:"
    return prefix + (token if rates is None else _with_rates(token, rates))


def cache_key(
    topology: Topology,
    routing: object,
    config: RunConfig,
    rule: ClassRule = no_classes,
) -> str | None:
    """The content-addressed key for one point, or None when uncacheable.

    Metered and traced points are uncacheable: a hit replays the stored
    stats but not the samples or events an observer would have taken.
    """
    import repro

    token = point_token(topology, routing, config, rule)
    if token is None or config.trace or spec_token("metrics", config.metrics) is None:
        return None
    material = "\n".join(
        [
            f"schema={CACHE_SCHEMA}",
            f"version={repro.__version__}",
            f"point={token}",
        ]
    )
    return digest(material, 64)


class ResultCache:
    """On-disk store of finished simulation points, one JSON file per key.

    Writes go through :func:`repro.store.atomic_write`, so concurrent
    sweeps sharing a directory can only ever observe complete entries.
    """

    def __init__(self, directory: "Path | str | None" = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str, config: RunConfig) -> RunResult | None:
        """The cached result for ``key`` (rebuilt around ``config``), or None
        for any entry that does not rebuild into a :class:`RunResult`."""
        try:
            payload = json.loads(self._path(key).read_text())
            if payload["schema"] != CACHE_SCHEMA:
                return None
            return RunResult(
                routing_name=payload["routing_name"],
                config=config,
                stats=SimStats.from_dict(payload["stats"]),
                n_nodes=payload["n_nodes"],
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, result: RunResult, wall_time: float) -> None:
        """Store a finished point under ``key``."""
        payload = {
            "schema": CACHE_SCHEMA,
            "routing_name": result.routing_name,
            "n_nodes": result.n_nodes,
            "stats": result.stats.to_dict(),
            "wall_time": wall_time,
        }
        atomic_write(self._path(key), json.dumps(payload))

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob("*.json"))
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


@dataclass
class PointOutcome:
    """One sweep point's result plus its execution provenance."""

    result: RunResult
    #: Seconds this point took: load time for a hit; for a miss, its
    #: simulation time or, when batched, its equal share of its batch's.
    wall_time: float
    #: True when served from the cache without simulating.
    cached: bool
    #: The cache key, or None when the point was uncacheable.
    key: str | None = None


@dataclass
class SweepReport:
    """A finished sweep: results plus the measurements that justify it.

    ``repro.sweep``/:meth:`SweepEngine.sweep` return this instead of a
    bare result list so speedups and cache effectiveness are measurable
    (``BENCH_*.json`` records them via :meth:`to_dict`).
    """

    points: list[PointOutcome]
    jobs: int
    wall_time: float
    #: Wall seconds per engine stage: ``cache_read`` (probing existing
    #: entries), ``spawn`` (process-pool construction), ``simulate``
    #: (executing the misses), ``cache_write`` (persisting new entries).
    #: Simulation time is additionally attributed per engine under
    #: ``simulate:<backend>`` keys (``simulate:reference``,
    #: ``simulate:vector``) summing each miss's ``wall_time``, so a
    #: mixed-backend batch shows where the cycles actually ran.  In the
    #: pool those are worker seconds: with ``jobs > 1`` they can add up
    #: to more than ``simulate``.
    stage_times: dict[str, float] = field(default_factory=dict)

    @property
    def results(self) -> list[RunResult]:
        return [p.result for p in self.points]

    @property
    def cache_hits(self) -> int:
        return sum(1 for p in self.points if p.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for p in self.points if not p.cached)

    @property
    def cycles_executed(self) -> int:
        """Simulation cycles actually executed (cache hits contribute 0)."""
        return sum(p.result.stats.cycles for p in self.points if not p.cached)

    @property
    def point_wall_times(self) -> list[float]:
        return [p.wall_time for p in self.points]

    def summary(self) -> str:
        """One-line human-readable account of the sweep."""
        return (
            f"{len(self.points)} points in {self.wall_time:.2f}s"
            f" (jobs={self.jobs}, cache {self.cache_hits} hit"
            f"/{self.cache_misses} miss, {self.cycles_executed} sim cycles)"
        )

    def stage_summary(self) -> str:
        """One line of engine stage times (``repro sweep`` prints this).

        Fixed stages first, then the per-backend ``simulate:<engine>``
        attributions, each as ``name=seconds``.
        """
        order = ["cache_read", "spawn", "simulate", "cache_write"]
        keys = [k for k in order if k in self.stage_times]
        keys += sorted(k for k in self.stage_times if k not in order)
        return "stages: " + " ".join(
            f"{k}={self.stage_times[k]:.3f}s" for k in keys
        )

    def to_dict(self) -> dict:
        """Strict-JSON-safe report (per-point timings and telemetry included).

        ``avg_latency`` is ``None`` (not the invalid-JSON ``NaN``) for
        points that delivered no packets; metered points carry their
        collector's compact summary under ``"metrics"``.
        """
        def point_dict(p: PointOutcome) -> dict:
            lat = p.result.avg_latency
            entry = {
                "routing": p.result.routing_name,
                "injection_rate": p.result.config.injection_rate,
                "seed": p.result.config.seed,
                "avg_latency": None if lat != lat else lat,
                "throughput": p.result.throughput,
                "deadlocked": p.result.deadlocked,
                "wall_time": p.wall_time,
                "cached": p.cached,
            }
            collector = getattr(p.result, "metrics", None)
            if collector is not None:
                entry["metrics"] = collector.summary_dict()
            return entry

        return {
            "jobs": self.jobs,
            "wall_time": self.wall_time,
            "stage_times": dict(self.stage_times),
            "n_points": len(self.points),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cycles_executed": self.cycles_executed,
            "points": [point_dict(p) for p in self.points],
        }


#: Metric names the engine reports (see :mod:`repro.obs.metrics`).
_HITS = "repro_cache_hits_total"
_HITS_HELP = "Result-cache hits served without simulating"
_MISSES = "repro_cache_misses_total"
_MISSES_HELP = "Result-cache misses (points actually simulated)"
_SIM_SECONDS = "repro_simulate_seconds"
_SIM_HELP = "Wall seconds per simulated point, by backend"


def _chunks(pending: list[tuple[int, str | None, tuple]], jobs: int) -> list[tuple]:
    """Cut the pending points into ``(topology, routing, configs, rule)``
    chunks, in order.

    Consecutive points on the same topology, routing and rule objects (a
    sweep's) form a run.  With ``jobs=1`` each run is one chunk.  For the
    pool, a point that runs alone (no batch kernel key) is a chunk of its
    own, as one pool task; each stretch of points that can batch is cut
    into at most ``ceil(jobs / runs)`` contiguous chunks of near-equal
    size, so the pool gets about ``jobs`` tasks and runs stay as whole as
    they can.
    """
    runs = [
        list(run)
        for _same, run in groupby(
            (payload for _i, _key, payload in pending),
            key=lambda payload: (id(payload[0]), id(payload[1]), id(payload[3])),
        )
    ]
    pieces = -(-jobs // max(1, len(runs)))
    chunks: list[tuple] = []
    for points in runs:
        topology, routing, _config, rule = points[0]
        for batches, stretch in groupby(
            (config for _t, _r, config, _rule in points),
            key=lambda config: jobs == 1 or _kernel_key(config, routing) is not None,
        ):
            configs = list(stretch)
            n = min(pieces, len(configs)) if batches else len(configs)
            cuts = [len(configs) * k // n for k in range(n + 1)]
            chunks += [(topology, routing, configs[a:b], rule) for a, b in zip(cuts, cuts[1:])]
    return chunks


def _execute_points(chunk: tuple) -> list[tuple[RunResult, float]]:
    """Simulate one chunk through :func:`~repro.sim.runner.run_points`,
    which steps its vector points as one batch kernel; each point comes
    with its seconds (module-level, so the pool can pickle it)."""
    topology, routing, configs, rule = chunk
    return run_points(topology, routing, configs, rule)


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:  # pickle raises a zoo: PicklingError, TypeError, ...
        return False


class SweepEngine:
    """Executes simulation points in parallel, consulting a result cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs everything in-process
        — the deterministic fallback path; results are bit-identical
        either way.
    cache:
        ``False`` (default) disables caching; ``True`` uses
        :func:`default_cache_dir`; a path or :class:`ResultCache` selects
        an explicit store.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: "bool | str | Path | ResultCache" = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        if isinstance(cache, ResultCache):
            self.cache: ResultCache | None = cache
        elif cache is True:
            self.cache = ResultCache()
        elif cache:
            self.cache = ResultCache(cache)
        else:
            self.cache = None

    # -- single points ---------------------------------------------------------

    def run_point(
        self,
        topology: Topology,
        routing: "RoutingFunction | str | object",
        config: RunConfig,
        rule: ClassRule = no_classes,
    ) -> PointOutcome:
        """One point: :meth:`run_many` of one, recorded as a ``run_point``
        ledger record when a ledger is armed."""
        report = self.run_many([(topology, routing, config)], rule)
        (point,) = report.points
        self._record("run_point", topology, routing, config, rule, report, None)
        return point

    def _load(self, key: str, config: RunConfig) -> PointOutcome | None:
        start = time.perf_counter()
        result = self.cache.get(key, config)  # type: ignore[union-attr]
        if result is None:
            return None
        return PointOutcome(result, time.perf_counter() - start, cached=True, key=key)

    # -- fan-out ---------------------------------------------------------------

    def map_tasks(self, fn, payloads: Iterable) -> list:
        """Fan arbitrary independent tasks out over the worker pool.

        ``fn`` must be a module-level callable and each payload picklable
        for the parallel path; otherwise the whole batch degrades to the
        deterministic in-process fallback (same results, serially).
        Results preserve payload order.  Unlike :meth:`run_many` this does
        not consult the result cache — callers own their own memoisation.
        :meth:`run_campaign` is its one caller.
        """
        items = list(payloads)
        parallel = (
            self.jobs > 1
            and len(items) > 1
            and _picklable(fn)
            and all(_picklable(item) for item in items)
        )
        if not parallel:
            return [fn(item) for item in items]
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            return list(pool.map(fn, items))
        finally:
            pool.shutdown()

    def run_campaign(
        self,
        kind: str,
        fn: Callable,
        pending: Sequence[int],
        payload: Callable[[int], object],
        absorb: Callable[[list[int], list], None],
        *,
        total: int,
        status: Callable[[], dict],
        budget_s: float | None = None,
        progress: Callable[[str], None] | None = None,
        heartbeat=None,
        **attrs,
    ) -> bool:
        """Run a campaign's ``pending`` trial indices in batches of
        ``max(8, jobs * 4)``; returns True when ``budget_s`` cut it short.

        Each batch maps ``fn`` over ``payload(index)`` through
        :meth:`map_tasks` and hands ``(indices, results)`` to ``absorb``
        inside a ``<kind>.batch`` span (itself inside one
        ``<kind>.campaign`` span carrying ``attrs``).  Trials of ``total``
        that are not pending (resumed from a checkpoint) count as done.
        After every batch ``repro_<kind>_trials_total`` grows, the
        ``heartbeat`` (a :class:`~repro.obs.heartbeat.HeartbeatWriter`)
        beats with the ``status()`` fields, ``progress`` receives
        ``<kind>: done/total trials (elapsed s) k=v...``, and, while trials
        are pending, the budget is checked — so at least one batch always
        runs and a cut never lands mid-trial.  The last beat is
        :meth:`~repro.obs.heartbeat.HeartbeatWriter.finish`'s.
        """
        started = time.monotonic()
        tracer = current_tracer()
        trials_metric = REGISTRY.counter(
            f"repro_{kind}_trials_total", help=f"Trials a {kind} campaign completed."
        )
        batch_size = max(8, self.jobs * 4)
        pending = list(pending)
        done = total - len(pending)
        interrupted = False
        with tracer.span(f"{kind}.campaign", **attrs) as root:
            batch_no = 0
            while pending:
                batch, pending = pending[:batch_size], pending[batch_size:]
                with tracer.span(
                    f"{kind}.batch", batch=batch_no, start=batch[0], trials=len(batch)
                ):
                    absorb(batch, self.map_tasks(fn, [payload(i) for i in batch]))
                trials_metric.inc(len(batch))
                done += len(batch)
                batch_no += 1
                fields = status()
                elapsed = time.monotonic() - started
                if heartbeat is not None:
                    heartbeat.beat(done, batch=batch_no, **fields)
                if progress is not None:
                    progress(
                        f"{kind}: {done}/{total} trials ({elapsed:.1f}s)"
                        + "".join(f" {k}={v}" for k, v in fields.items())
                    )
                if pending and budget_s is not None and elapsed >= budget_s:
                    interrupted = True
                    break
            fields = status()
            root.set(completed=done, interrupted=interrupted, **fields)
        if heartbeat is not None:
            heartbeat.finish(done, interrupted=interrupted, **fields)
        return interrupted

    def run_many(
        self,
        points: Iterable[tuple[Topology, object, RunConfig]],
        rule: ClassRule = no_classes,
    ) -> SweepReport:
        """Run ``(topology, routing-spec, config)`` points, preserving order.

        Every point's config is first checked against its backend
        (:func:`~repro.sim.backend.check_run_config`), so a point the
        backend cannot run is refused whether or not it is cached.  Cache
        hits load immediately.  Misses are cut into chunks
        (:func:`_chunks`): when ``jobs > 1`` and every miss is picklable,
        each point that runs alone is a chunk of its own and the points
        that can batch are cut into contiguous pieces, about ``jobs``
        chunks in all, which go over the process pool, one per task;
        otherwise each run of consecutive points on the same topology,
        routing and rule objects is one chunk, run in-process, in order.
        Every chunk goes to
        :func:`~repro.sim.runner.run_points`, which steps its vector points
        on one network as one batch kernel (same results).  A
        batched point's ``wall_time`` — in its :class:`PointOutcome`, its
        cache entry and the ``simulate:<backend>`` stage — is its equal
        share of the batch's.
        """
        started = time.perf_counter()
        stage_times = {
            "cache_read": 0.0, "spawn": 0.0, "simulate": 0.0, "cache_write": 0.0,
        }
        work = [(t, r, c, rule) for (t, r, c) in points]
        for _topology, _routing, config, _rule in work:
            check_run_config(resolve_backend(config.backend), config)
        outcomes: list[PointOutcome | None] = [None] * len(work)
        tracer = current_tracer()
        with tracer.span("sweep.run_many", points=len(work), jobs=self.jobs) as root:
            with tracer.span("sweep.cache_read"):
                mark = time.perf_counter()
                # (index, cache key, payload) per point to simulate.
                pending: list[tuple[int, str | None, tuple]] = []
                for i, payload in enumerate(work):
                    key = cache_key(*payload) if self.cache is not None else None
                    if key is not None and self.cache is not None:
                        cached = self._load(key, payload[2])
                        if cached is not None:
                            outcomes[i] = cached
                            continue
                    pending.append((i, key, payload))
                stage_times["cache_read"] = time.perf_counter() - mark

            parallel = (
                self.jobs > 1
                and len(pending) > 1
                and all(_picklable(payload) for _i, _key, payload in pending)
            )
            # In-process, a whole run is one call: splitting it would only
            # shrink its batch kernels.
            chunks = _chunks(pending, self.jobs if parallel else 1)
            pool = None
            if parallel:
                with tracer.span("sweep.spawn"):
                    mark = time.perf_counter()
                    pool = ProcessPoolExecutor(max_workers=self.jobs)
                    stage_times["spawn"] = time.perf_counter() - mark
            with tracer.span("sweep.simulate", parallel=parallel, misses=len(pending)):
                mark = time.perf_counter()
                try:
                    ran = (pool.map if pool is not None else map)(_execute_points, chunks)
                    executed = [outcome for got in ran for outcome in got]
                finally:
                    if pool is not None:
                        pool.shutdown()
                stage_times["simulate"] = time.perf_counter() - mark

            with tracer.span("sweep.cache_write"):
                mark = time.perf_counter()
                for (i, key, payload), (result, elapsed) in zip(pending, executed):
                    if key is not None and self.cache is not None:
                        self.cache.put(key, result, elapsed)
                    backend_stage = f"simulate:{payload[2].backend}"
                    stage_times[backend_stage] = stage_times.get(backend_stage, 0.0) + elapsed
                    REGISTRY.histogram(
                        _SIM_SECONDS,
                        labels={"backend": payload[2].backend},
                        help=_SIM_HELP,
                    ).observe(elapsed)
                    outcomes[i] = PointOutcome(result, elapsed, cached=False, key=key)
                stage_times["cache_write"] = time.perf_counter() - mark

            hits = sum(1 for o in outcomes if o is not None and o.cached)
            if self.cache is not None:
                REGISTRY.counter(_HITS, help=_HITS_HELP).inc(hits)
                REGISTRY.counter(_MISSES, help=_MISSES_HELP).inc(len(pending))
            root.set(cache_hits=hits, cache_misses=len(pending))

        return SweepReport(
            points=[o for o in outcomes if o is not None],
            jobs=self.jobs if parallel else 1,
            wall_time=time.perf_counter() - started,
            stage_times=stage_times,
        )

    def sweep(
        self,
        topology: Topology,
        routing_factory: "object | str",
        rates: Sequence[float],
        config: RunConfig,
        rule: ClassRule = no_classes,
    ) -> SweepReport:
        """Latency/throughput curve over injection rates, one point per rate.

        :func:`repro.sweep` is this method on ``SweepEngine(jobs, cache)``;
        named specs keep the fan-out picklable, raw factories degrade to
        the in-process path automatically.  ``routing_factory`` may also be
        a ready :class:`~repro.routing.base.RoutingFunction`, as for
        :meth:`run_many`.
        """
        if not isinstance(routing_factory, (str, RoutingFunction)):
            # Fail fast on typos; string specs resolve in the workers.
            resolve_routing_factory(routing_factory)
        points = [(topology, routing_factory, config.with_rate(r)) for r in rates]
        report = self.run_many(points, rule)
        self._record("sweep", topology, routing_factory, config, rule, report, rates)
        return report

    def _record(self, kind, topology, routing, config, rule, report, rates) -> None:
        """Append a ``run_point`` or ``sweep`` ledger record when a ledger
        is configured.

        Identity is the version-free :func:`_ledger_spec`; the outcome
        digest covers the point's deterministic stats dict (a sweep's:
        every point's, in rate order), so drift in any counter of any
        point is visible to ``repro runs diff``.
        """
        from repro.obs.ledger import current_ledger, record_run

        if current_ledger() is None:
            return
        payload = [r.stats.to_dict() for r in report.results]
        deadlocked = any(r.deadlocked for r in report.results)
        record_run(
            kind,
            spec=_ledger_spec(topology, routing, config, rule, rates),
            backend=config.backend,
            seed=config.seed,
            outcome="deadlock" if deadlocked else "ok",
            payload=payload if rates is not None else payload[0],
            wall_s=report.wall_time,
        )
