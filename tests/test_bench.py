"""Tests for the benchmark harness itself (small scales)."""

import pytest

from repro.bench import (
    BenchScale,
    epaxos_spec,
    raft_spec,
    run_latency,
    run_throughput,
    run_timeline,
    sift_spec,
)
from repro.bench.runner import run_openloop
from repro.bench.systems import sharded_spec
from repro.bench.metrics import percentile
from repro.bench.report import bar_table, kv_table, series_table, sparkline
from repro.sim.units import MS, SEC
from repro.workloads import WORKLOADS

TINY = BenchScale(
    keys=512,
    warmup_us=10 * MS,
    measure_us=30 * MS,
    clients=6,
    wal_entries=512,
    kv_wal_entries=512,
)


class TestPercentile:
    def test_simple(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0
        assert percentile([5.0], 99) == 5.0
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0

    def test_empty_returns_default(self):
        # A timeline window that completed zero ops (mid-failover under
        # chaos) must report a defined value, not crash the report.
        assert percentile([], 50) == 0.0
        assert percentile([], 99, default=-1.0) == -1.0

    def test_metrics_empty_window_latency(self):
        from repro.bench.metrics import Metrics

        metrics = Metrics()
        metrics.begin(0.0)
        metrics.end(100.0)
        assert metrics.latency("read", 50) == 0.0
        assert metrics.latency("write", 95) == 0.0
        assert metrics.throughput() == 0.0


class TestReport:
    def test_bar_table_renders(self):
        text = bar_table("T", ["a", "b"], {"sys": [1000.0, 2000.0]})
        assert "T" in text and "sys" in text and "1,000" in text

    def test_series_table_renders(self):
        text = series_table("T", "x", "y", {"s": [(1, 2.0)]})
        assert "[s]" in text

    def test_kv_table_renders(self):
        assert "k  v" in kv_table("T", [("k", "v")])

    def test_sparkline(self):
        line = sparkline([0, 1, 2, 4])
        assert len(line) == 4
        assert sparkline([]) == ""


class TestRunners:
    @pytest.mark.parametrize(
        "spec_factory",
        [
            lambda: sift_spec(scale=TINY),
            lambda: raft_spec(scale=TINY),
            lambda: epaxos_spec(scale=TINY),
        ],
        ids=["sift", "raft", "epaxos"],
    )
    def test_throughput_runs_and_is_positive(self, spec_factory):
        result = run_throughput(spec_factory(), WORKLOADS["read-heavy"], scale=TINY)
        assert result.ops_per_sec > 0
        assert result.errors == 0

    def test_throughput_deterministic(self):
        spec = sift_spec(scale=TINY)
        a = run_throughput(spec, WORKLOADS["mixed"], scale=TINY, seed=3)
        b = run_throughput(sift_spec(scale=TINY), WORKLOADS["mixed"], scale=TINY, seed=3)
        assert a.ops_per_sec == b.ops_per_sec
        assert a.completed == b.completed

    def test_latency_percentiles_present(self):
        result = run_latency(sift_spec(scale=TINY), WORKLOADS["mixed"], 2, scale=TINY)
        assert result.read_p50 is not None and result.read_p50 > 0
        assert result.write_p50 is not None
        assert result.read_p95 >= result.read_p50

    def test_read_only_has_no_write_latencies(self):
        result = run_latency(sift_spec(scale=TINY), WORKLOADS["read-only"], 2, scale=TINY)
        assert result.write_p50 is None

    def test_sift_preload_is_readable_through_the_client(self):
        """The synchronous preloader must be indistinguishable from puts."""
        from repro.api import Cluster
        from repro.workloads.generator import KeySampler

        for ec in (False, True):
            cluster = Cluster.build(sift_spec(erasure_coding=ec, scale=TINY), seed=2)
            cluster.wait_ready(deadline_us=5 * SEC)
            sampler = KeySampler(TINY.keys)
            cluster.preload((sampler.key(i), b"pre-%d" % i) for i in range(64))
            client = cluster.client(name="c", cores=2)

            def check():
                for i in (0, 13, 63):
                    value = yield from client.get(sampler.key(i))
                    assert value == b"pre-%d" % i, (ec, i, value)
                # Preloaded keys are updatable and the update wins.
                yield from client.put(sampler.key(13), b"updated")
                return (yield from client.get(sampler.key(13)))

            assert cluster.run(check(), deadline_us=20 * SEC) == b"updated"

    def test_timeline_records_event_and_series(self):
        fired = []

        def fault(group):
            fired.append(True)
            group.crash_memory_node(2)

        result = run_timeline(
            sift_spec(scale=TINY),
            WORKLOADS["read-heavy"],
            4,
            duration_us=0.5 * SEC,
            events=[(0.2 * SEC, "kill", fault)],
            scale=TINY,
        )
        assert fired == [True]
        assert result.events[0][1] == "kill"
        assert len(result.series) >= 4
        assert sum(ops for _t, ops in result.series) > 0

    def test_openloop_returns_the_figMclients_cell(self):
        cell = run_openloop(
            sharded_spec(scale=TINY),
            WORKLOADS["read-heavy"],
            offered_ops_per_sec=20_000.0,
            n_clients=1_000,
            scale=TINY,
        )
        assert list(cell) == [
            "offered_ops_per_sec", "achieved_ops_per_sec", "generated",
            "admitted", "completed", "errors", "retries", "shed",
            "clients_active", "clients_population", "inflight_peaks", "slo",
        ]
        assert cell["completed"] > 0
        assert cell["clients_population"] == 1_000
        assert set(cell["shed"]) == {"throttle", "queue"}
