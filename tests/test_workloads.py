"""Tests for workload generation and the client pool."""

import random

import pytest

from repro.bench.metrics import Metrics
from repro.workloads import WORKLOADS, UniformSampler, ZipfSampler


class TestMixes:
    def test_paper_mixes(self):
        assert WORKLOADS["write-only"].write_fraction == 1.0
        assert WORKLOADS["mixed"].write_fraction == 0.5
        assert WORKLOADS["read-heavy"].write_fraction == 0.1
        assert WORKLOADS["read-only"].write_fraction == 0.0


class TestUniformSampler:
    def test_range(self):
        sampler = UniformSampler(100)
        rng = random.Random(0)
        samples = [sampler.sample(rng) for _ in range(1000)]
        assert all(0 <= s < 100 for s in samples)

    def test_roughly_uniform(self):
        sampler = UniformSampler(10)
        rng = random.Random(1)
        counts = [0] * 10
        for _ in range(10_000):
            counts[sampler.sample(rng)] += 1
        assert min(counts) > 700 and max(counts) < 1300

    def test_key_rendering(self):
        sampler = UniformSampler(10)
        key = sampler.key(7)
        assert len(key) <= 32
        assert key != sampler.key(8)

    def test_needs_at_least_one_key(self):
        with pytest.raises(ValueError):
            UniformSampler(0)


class TestZipfSampler:
    def test_range(self):
        sampler = ZipfSampler(1000, theta=0.99)
        rng = random.Random(0)
        assert all(0 <= sampler.sample(rng) < 1000 for _ in range(1000))

    def test_skew_favours_low_ranks(self):
        """With theta=0.99 the head of the distribution dominates (§6.2)."""
        sampler = ZipfSampler(100_000, theta=0.99)
        rng = random.Random(2)
        samples = [sampler.sample(rng) for _ in range(20_000)]
        top_100 = sum(1 for s in samples if s < 100)
        assert top_100 / len(samples) > 0.3  # heavy head
        assert sampler.hot_fraction(100) > 0.3
        assert sampler.hot_fraction(100_000) == pytest.approx(1.0)

    def test_zero_theta_is_uniform(self):
        sampler = ZipfSampler(1000, theta=0.0)
        assert sampler.hot_fraction(100) == pytest.approx(0.1, rel=0.01)

    def test_empirical_matches_cdf(self):
        sampler = ZipfSampler(1000, theta=0.99)
        rng = random.Random(3)
        samples = [sampler.sample(rng) for _ in range(50_000)]
        empirical = sum(1 for s in samples if s < 10) / len(samples)
        assert empirical == pytest.approx(sampler.hot_fraction(10), abs=0.02)

    def test_hot_fraction_monotone(self):
        sampler = ZipfSampler(1000)
        fractions = [sampler.hot_fraction(n) for n in (1, 10, 100, 1000)]
        assert fractions == sorted(fractions)
        assert sampler.hot_fraction(0) == 0.0


class TestMetrics:
    def test_throughput(self):
        metrics = Metrics()
        metrics.begin(0.0)
        for index in range(100):
            metrics.record("read", index * 10.0, index * 10.0 + 5.0)
        metrics.end(1_000_000.0)
        assert metrics.throughput() == pytest.approx(100.0)

    def test_latency_percentiles(self):
        metrics = Metrics()
        metrics.begin(0.0)
        for latency in range(1, 101):
            metrics.record("read", 0.0, float(latency))
        metrics.end(1.0)
        assert metrics.latency("read", 50) == pytest.approx(50.5)
        assert metrics.latency("read", 95) == pytest.approx(95.05)

    def test_records_outside_measurement_not_counted(self):
        metrics = Metrics()
        metrics.record("read", 0.0, 1.0)  # before begin
        metrics.begin(10.0)
        metrics.record("read", 10.0, 11.0)
        metrics.end(20.0)
        assert metrics.completed == 1

    def test_windows_track_timeline(self):
        metrics = Metrics(window_us=100.0)
        metrics.begin(0.0)
        metrics.record("read", 0.0, 50.0)
        metrics.record("read", 0.0, 150.0)
        metrics.record("read", 0.0, 160.0)
        metrics.end(300.0)
        timeline = metrics.timeline(0.0, 300.0)
        # The end lies exactly on a boundary: three whole windows, and no
        # empty fourth one for the window that merely starts at 300.
        assert [t for t, _ops in timeline] == pytest.approx([0.0, 1e-4, 2e-4])
        counts = [ops for _t, ops in timeline]
        assert counts[0] == pytest.approx(1 * 1e6 / 100.0)
        assert counts[1] == pytest.approx(2 * 1e6 / 100.0)
        assert counts[2] == 0.0

    def test_timeline_drops_the_window_the_run_ended_in(self):
        # Steady completions, one every 10 us, and a run that ends 30 %
        # into its last window: that window's 3 completions scaled as if
        # it were whole would read as a collapse to 0.3x.
        metrics = Metrics(window_us=100.0)
        metrics.begin(0.0)
        for index in range(33):
            metrics.record("read", 0.0, index * 10.0 + 5.0)
        metrics.end(330.0)
        timeline = metrics.timeline(0.0, 330.0)
        assert len(timeline) == 3
        counts = [ops for _t, ops in timeline]
        assert counts[-1] == pytest.approx(counts[0], rel=0.03)

    def test_error_counting(self):
        metrics = Metrics()
        metrics.begin(0.0)
        metrics.record_error()
        metrics.end(1.0)
        assert metrics.errors == 1

    def test_reservoir_bounds_memory(self):
        metrics = Metrics(reservoir=100)
        metrics.begin(0.0)
        for index in range(10_000):
            metrics.record("read", 0.0, float(index))
        metrics.end(1.0)
        assert len(metrics.latencies["read"]) == 100
        assert metrics.completed == 10_000
