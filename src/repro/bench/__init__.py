"""Benchmark harness.

One module per concern:

* :mod:`~repro.bench.calibration` — the scale knobs and the calibrated
  per-system configurations used by every experiment.
* :mod:`~repro.bench.systems` — system-under-test factories with a
  uniform build / wait-ready / preload interface.
* :mod:`~repro.bench.runner` — throughput, latency, and timeline
  experiment drivers.
* :mod:`~repro.bench.metrics` — completion recording, percentiles,
  100 ms throughput windows.
* :mod:`~repro.bench.report` — paper-style table and series rendering.
* :mod:`~repro.bench.points` / :mod:`~repro.bench.cli` — every table
  and figure of §6 as a grid of points plus the gates that state the
  paper's claims about it (``python -m repro.bench.cli <figure>``).
"""

from repro.bench.calibration import BenchScale
from repro.bench.metrics import Metrics, percentile
from repro.bench.runner import LatencyResult, ThroughputResult, run_latency, run_throughput, run_timeline
from repro.bench.systems import SystemSpec, epaxos_spec, raft_spec, sift_spec

__all__ = [
    "BenchScale",
    "LatencyResult",
    "Metrics",
    "SystemSpec",
    "ThroughputResult",
    "epaxos_spec",
    "percentile",
    "raft_spec",
    "run_latency",
    "run_throughput",
    "run_timeline",
    "sift_spec",
]
