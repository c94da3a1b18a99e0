"""SweepEngine's misses run as chunks, in-process and in the worker pool alike.

For the pool, the points on one network that can batch are cut into
contiguous chunks (about ``jobs`` chunks over all networks) and every point
that runs alone is a chunk of its own; every chunk goes to ``run_points`` as
one call, so pooled vector points batch as in-process ones do and give the
same stats.
"""

import json
from pathlib import Path

import pytest

from repro.errors import RoutingError
from repro.fuzz.corpus import load_entry
from repro.routing import TurnTableRouting
from repro.sim import RunConfig, SweepEngine, parallel, run_point
from repro.sim.parallel import _chunks
from repro.topology import Mesh
from repro.topology.classes import no_classes

COMMITTED_CORPUS = Path(__file__).parents[1] / "fuzz" / "corpus"
RATES = (0.02, 0.05, 0.08, 0.12, 0.2)


def _stats(report):
    return [result.stats.to_dict() for result in report.results]


def _entries(directory):
    return {
        path.name: {k: v for k, v in json.loads(path.read_text()).items() if k != "wall_time"}
        for path in directory.glob("*.json")
    }


def _pending(points):
    """``(index, key, payload)`` per ``(topology, routing, config)`` point."""
    return [(i, None, (t, r, c, no_classes)) for i, (t, r, c) in enumerate(points)]


def _sizes(chunks):
    return [len(chunk[2]) for chunk in chunks]


class TestChunks:
    @pytest.mark.parametrize(
        "n,jobs,sizes",
        [(5, 1, [5]), (5, 2, [2, 3]), (5, 4, [1, 1, 1, 2]), (3, 8, [1, 1, 1]), (1, 4, [1])],
    )
    def test_near_equal_contiguous_pieces(self, n, jobs, sizes):
        topology = Mesh(3, 3)
        configs = [RunConfig(seed=i, backend="vector") for i in range(n)]
        chunks = _chunks(_pending([(topology, "xy", c) for c in configs]), jobs)
        assert _sizes(chunks) == sizes
        assert [c for chunk in chunks for c in chunk[2]] == configs

    def test_a_run_ends_where_the_network_object_changes(self):
        a, b = Mesh(3, 3), Mesh(3, 3)
        points = [(a, "xy"), (a, "xy"), (b, "xy"), (b, "west-first"), (a, "xy")]
        chunks = _chunks(_pending([(t, r, RunConfig(seed=i)) for i, (t, r) in enumerate(points)]), 1)
        assert [(chunk[0] is a, chunk[1], len(chunk[2])) for chunk in chunks] == [
            (True, "xy", 2), (False, "xy", 1), (False, "west-first", 1), (True, "xy", 1),
        ]

    def test_points_that_run_alone_are_one_task_each(self):
        topology = Mesh(3, 3)
        configs = [RunConfig(seed=i) for i in range(8)]
        pending = _pending([(topology, "xy", c) for c in configs])
        assert _sizes(_chunks(pending, 4)) == [1] * 8
        # In-process the run stays whole whatever its backend.
        assert _sizes(_chunks(pending, 1)) == [8]

    def test_a_lone_point_splits_only_its_stretch(self):
        topology = Mesh(3, 3)
        vector = RunConfig(backend="vector")
        configs = [vector, vector.with_rate(0.02), RunConfig(), vector.with_rate(0.03), vector]
        chunks = _chunks(_pending([(topology, "xy", c) for c in configs]), 2)
        assert _sizes(chunks) == [1, 1, 1, 1, 1]
        assert [c for chunk in chunks for c in chunk[2]] == configs
        assert _sizes(_chunks(_pending([(topology, "xy", c) for c in configs[:2]] * 2), 2)) == [
            2, 2,
        ]

    def test_several_runs_share_the_jobs(self):
        topology = Mesh(3, 3)
        config = RunConfig(backend="vector")
        points = [
            (topology, routing, config.with_rate(rate))
            for routing in ("xy", "negative-first", "west-first-vcs")
            for rate in (0.03, 0.1, 0.2)
        ]
        # ceil(4 / 3) = 2 pieces per run: six tasks, not nine one-point ones.
        assert _sizes(_chunks(_pending(points), 4)) == [1, 2, 1, 2, 1, 2]
        # As many runs as jobs: each run stays one batch.
        assert _sizes(_chunks(_pending(points), 3)) == [3, 3, 3]


class TestPoolMatchesSerial:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_rate_sweep(self, jobs, tmp_path):
        topology = Mesh(6, 6)
        config = RunConfig(cycles=250, seed=4, backend="vector")
        serial = SweepEngine(jobs=1, cache=tmp_path / "serial").sweep(
            topology, "west-first-vcs", RATES, config
        )
        pooled = SweepEngine(jobs=jobs, cache=tmp_path / "pooled").sweep(
            topology, "west-first-vcs", RATES, config
        )
        assert pooled.jobs == jobs
        assert _stats(pooled) == _stats(serial)
        assert len(_entries(tmp_path / "pooled")) == len(RATES)
        assert _entries(tmp_path / "pooled") == _entries(tmp_path / "serial")

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_several_routings(self, jobs, tmp_path):
        topology = Mesh(5, 5)
        config = RunConfig(cycles=250, seed=2, backend="vector")
        points = [
            (topology, routing, config.with_rate(rate))
            for routing in ("xy", "negative-first", "west-first-vcs")
            for rate in (0.03, 0.1, 0.2)
        ]
        serial = SweepEngine(jobs=1, cache=tmp_path / "serial").run_many(points)
        pooled = SweepEngine(jobs=jobs, cache=tmp_path / "pooled").run_many(points)
        assert pooled.jobs == jobs
        assert _stats(pooled) == _stats(serial)
        assert [r.routing_name for r in pooled.results] == [
            r.routing_name for r in serial.results
        ]
        assert _entries(tmp_path / "pooled") == _entries(tmp_path / "serial")

    def test_pooled_points_share_their_chunk_time(self):
        config = RunConfig(cycles=200, seed=1, backend="vector")
        report = SweepEngine(jobs=2).sweep(Mesh(5, 5), "xy", RATES[:4], config)
        assert report.jobs == 2
        first, second = (
            {round(point.wall_time, 12) for point in report.points[a:b]}
            for a, b in ((0, 2), (2, 4))
        )
        # Two chunks of two points, each point its equal share of its chunk.
        assert len(first) == 1 and len(second) == 1

    def test_dead_end_raises_the_serial_error(self, monkeypatch):
        design = load_entry(COMMITTED_CORPUS / "fuzz-4df2a24b2051.json").design
        seq, turnset = design.compile()
        topology, rule = design.topology(), design.class_rule()
        routing = TurnTableRouting(topology, seq, rule, turnset=turnset, validate=False)
        config = RunConfig(cycles=60, seed=5, watchdog=150, buffer_depth=2, backend="vector")
        rates = (0.01, 0.02, 0.05)
        serial = []
        for rate in rates:
            try:
                run_point(topology, routing, config.with_rate(rate), rule)
                serial.append(None)
            except RoutingError as exc:
                serial.append(str(exc))
        assert serial[0] is None and None not in serial[1:]
        assert serial[1] != serial[2]

        pools = []
        real_pool = parallel.ProcessPoolExecutor

        def counting_pool(**kwargs):
            pools.append(kwargs)
            return real_pool(**kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", counting_pool)
        points = [(topology, routing, config.with_rate(rate)) for rate in rates]
        with pytest.raises(RoutingError) as info:
            SweepEngine(jobs=2).run_many(points, rule)
        assert pools == [{"max_workers": 2}]
        assert str(info.value) == serial[1]

    def test_unpicklable_runs_stay_whole_in_process(self):
        pattern = lambda src, nodes, rng: nodes[0] if src != nodes[0] else nodes[-1]  # noqa: E731
        config = RunConfig(cycles=200, seed=1, backend="vector", pattern=pattern)
        report = SweepEngine(jobs=4).sweep(Mesh(5, 5), "xy", RATES[:4], config)
        assert report.jobs == 1
        # One batch of four, as with jobs=1: not four batches of one.
        assert len({round(point.wall_time, 12) for point in report.points}) == 1
