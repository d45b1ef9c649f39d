"""The parallel point executor must not change any number.

``run_points`` isolates every point in a fresh registry and merges the
dumps back in declared order, so a figure's registry snapshot — and
with it the whole ``BENCH_*.json`` artifact — is byte-identical whether
the points ran serially or across worker processes.  These tests pin
that contract with cheap synthetic points (the real figure drivers are
exercised against the committed baselines by CI's bench-smoke job at
``--jobs 1`` and ``--jobs 2``).
"""

import pytest

from repro.bench import parallel
from repro.bench.parallel import Point, run_points
from repro.obs.registry import MetricsRegistry, collecting, current_registry
from repro.sim.engine import Simulator


# Top-level so it pickles for the worker-process path.
def emit_point(name: str, value: float) -> dict:
    registry = current_registry()
    registry.counter("pt.calls").inc()
    registry.counter("pt.total").inc(value)
    registry.gauge("pt.last").set(value)
    registry.histogram("pt.samples", point=name).observe(value)
    registry.histogram("pt.all").observe(value)
    return {"name": name, "value": value}


def boom_point() -> dict:
    raise RuntimeError("point exploded")


def simulator_point() -> dict:
    Simulator()
    return {}


def _points():
    return [
        Point(f"p{i}", emit_point, {"name": f"p{i}", "value": float(v)})
        for i, v in enumerate((3, 1, 4, 1, 5))
    ]


def _snapshot(jobs: int):
    registry = MetricsRegistry()
    with collecting(registry):
        values = run_points(_points(), jobs=jobs)
    return values, registry.snapshot()


class TestRunPoints:
    def test_serial_merges_in_declared_order(self):
        values, snap = _snapshot(jobs=1)
        assert values["p2"] == {"name": "p2", "value": 4.0}
        assert snap["counters"]["pt.calls"] == 5.0
        assert snap["counters"]["pt.total"] == 14.0
        # Gauges are last-write-wins in declared order: the final point.
        assert snap["gauges"]["pt.last"] == 5.0
        assert snap["histograms"]["pt.all"]["count"] == 5.0
        assert snap["histograms"]["pt.samples{point=p0}"]["p50"] == 3.0

    def test_parallel_snapshot_identical_to_serial(self):
        values_1, snap_1 = _snapshot(jobs=1)
        values_2, snap_2 = _snapshot(jobs=2)
        assert values_1 == values_2
        assert snap_1 == snap_2

    def test_duplicate_keys_rejected(self):
        points = [Point("same", emit_point, {"name": "a", "value": 1.0})] * 2
        with pytest.raises(ValueError, match="duplicate"):
            run_points(points)

    def test_runs_without_ambient_registry(self):
        # Each point still gets its own registry; dumps are discarded.
        assert current_registry() is None
        values = run_points(_points()[:2], jobs=1)
        assert values == {
            "p0": {"name": "p0", "value": 3.0},
            "p1": {"name": "p1", "value": 1.0},
        }

    def test_only_a_point_that_built_a_simulator_drains_garbage(self, monkeypatch):
        """A drain costs a full collection, which dwarfs an arithmetic point;
        one point's closing drain is also the next point's opening one."""
        Simulator()  # whatever ran before: the first boundary drains it
        drains = []
        monkeypatch.setattr(parallel.gc, "collect", lambda: drains.append(1))
        run_points(_points()[:2], jobs=1)
        assert len(drains) == 1
        points = [Point("sim", simulator_point, {}), *_points()[:2]]
        run_points(points, jobs=1)
        assert len(drains) == 2  # after "sim" only, not again before "p0"
        run_points(_points()[:2], jobs=1)
        assert len(drains) == 2

    def test_point_exception_propagates(self):
        with pytest.raises(RuntimeError, match="point exploded"):
            run_points([Point("bad", boom_point, {})], jobs=1)


class TestMergeDump:
    def test_counters_add_and_histograms_concatenate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2.0)
        b.counter("c").inc(3.0)
        b.counter("only_b").inc(1.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(2.0)
        merged = MetricsRegistry()
        merged.merge_dump(a.dump())
        merged.merge_dump(b.dump())
        assert merged.value("c") == 5.0
        assert merged.value("only_b") == 1.0
        assert merged.histogram("h").samples == [1.0, 2.0]

    def test_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        merged = MetricsRegistry()
        merged.merge_dump(a.dump())
        merged.merge_dump(b.dump())
        assert merged.value("g") == 2.0

    def test_merged_snapshot_matches_single_registry(self):
        """Merging dumps reproduces a shared registry fed in order —
        including float-addition order inside histogram sums."""
        single = MetricsRegistry()
        parts = []
        for value in (0.1, 0.2, 0.3):
            part = MetricsRegistry()
            for registry in (single, part):
                registry.counter("n").inc()
                registry.histogram("h").observe(value)
            parts.append(part)
        merged = MetricsRegistry()
        for part in parts:
            merged.merge_dump(part.dump())
        assert merged.snapshot() == single.snapshot()
