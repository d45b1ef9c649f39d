"""Observability must not perturb the simulation.

The literals below were captured from the seed code *before* the
instrumentation sites existed.  Two properties are pinned:

1. with obs disabled (the default), every figure driver reproduces the
   pre-instrumentation numbers byte-for-byte, and
2. enabling the tracer and the registry changes *nothing* — recording
   draws no randomness and schedules no events, so the simulated
   schedule is identical with observability on or off.

If an intentional simulator change moves these numbers, re-capture
them here and refresh benchmarks/baselines/ in the same commit.
"""

import pytest

from repro.bench.calibration import BenchScale
from repro.bench.runner import run_latency, run_throughput, run_timeline
from repro.bench.systems import raft_spec, sift_spec
from repro.obs import observe
from repro.sim.units import MS, SEC
from repro.workloads import WORKLOADS

SCALE = BenchScale(keys=2048, warmup_us=10 * MS, measure_us=20 * MS, clients=8)

# Captured at commit f27e254 (pre-instrumentation), seed=1.
GOLDEN_SIFT_TP = (147200.0, 2944, 0)
GOLDEN_RAFT_TP = (152700.0, 3054, 0)
GOLDEN_SIFT_LAT = (
    53.1433685386728,
    62.47442726300214,
    58.7027923188507,
    60.69487473702757,
    17700.0,
)
GOLDEN_TL_SERIES = [
    (-0.008999999999999994, 73760.0),
    (0.09100000000000001, 73840.0),
    (0.191, 73980.0),
    (0.29100000000000004, 73980.0),
    (0.391, 69120.0),
    (0.491, 73980.0),
    (0.591, 73920.0),
    (0.6910000000000001, 73910.0),
    # The capture ended in (0.791, 6660.0): the window the run stopped
    # in, scaled as if whole.  Metrics.timeline emits whole windows only.
]
GOLDEN_TL_EVENTS = [(0.25, "crash mem2"), (0.4, "restart mem2")]


def _throughput(spec_factory):
    result = run_throughput(
        spec_factory(), WORKLOADS["read-heavy"], scale=SCALE, seed=1
    )
    return (result.ops_per_sec, result.completed, result.errors)


def _latency():
    r = run_latency(
        sift_spec(cores=12, scale=SCALE), WORKLOADS["mixed"], 1, scale=SCALE, seed=1
    )
    return (r.read_p50, r.read_p95, r.write_p50, r.write_p95, r.ops_per_sec)


def _timeline():
    def crash(cluster):
        cluster.crash_memory_node(2)

    def restart(cluster):
        cluster.restart_memory_node(2)

    return run_timeline(
        sift_spec(cores=12, scale=SCALE),
        WORKLOADS["read-heavy"],
        4,
        0.8 * SEC,
        events=[(0.25 * SEC, "crash mem2", crash), (0.4 * SEC, "restart mem2", restart)],
        scale=SCALE,
        seed=1,
    )


class TestDisabledMatchesSeed:
    """Default mode: numbers are bit-identical to the pre-obs capture."""

    def test_sift_throughput(self):
        assert _throughput(lambda: sift_spec(cores=12, scale=SCALE)) == GOLDEN_SIFT_TP

    def test_raft_throughput(self):
        assert _throughput(lambda: raft_spec(cores=12, scale=SCALE)) == GOLDEN_RAFT_TP

    def test_sift_latency(self):
        assert _latency() == GOLDEN_SIFT_LAT

    def test_timeline(self):
        result = _timeline()
        assert result.series == GOLDEN_TL_SERIES
        assert result.events == GOLDEN_TL_EVENTS


class TestEnabledIsFree:
    """Tracer + registry on: same numbers, observations recorded."""

    def test_throughput_unchanged_with_obs_on(self):
        with observe() as (tracer, registry):
            got = _throughput(lambda: sift_spec(cores=12, scale=SCALE))
        assert got == GOLDEN_SIFT_TP
        assert len(tracer) > 0
        assert registry.sum_counters("rdma.verbs") > 0
        assert registry.value("bench.throughput_ops") == GOLDEN_SIFT_TP[0]

    def test_timeline_unchanged_with_obs_on(self):
        with observe() as (tracer, registry):
            result = _timeline()
        assert result.series == GOLDEN_TL_SERIES
        assert result.events == GOLDEN_TL_EVENTS
        assert registry.sum_counters("repmem.nodes_marked_dead") == 1
        assert registry.sum_counters("repmem.nodes_recovered") == 1
        # The crash landed 0.25 s into the measurement; the coordinator
        # marks the node dead within a few detection rounds of that.
        # (The instant's timestamp is absolute sim time: rebase.)
        crash_marks = tracer.named("repmem.node_dead")
        assert len(crash_marks) == 1
        assert (crash_marks[0].start_us - result.base_us) == pytest.approx(
            0.25 * SEC, abs=50 * MS
        )
