"""Calibration constants and scale knobs.

Absolute numbers from a simulator are not the paper's cluster numbers;
what the harness targets is the *relative* behaviour (§6).  All knobs
that trade experiment fidelity against wall-clock time live here, and
every one can be overridden through environment variables so CI can run
quick sanity passes while a full run regenerates publication-scale data:

``REPRO_BENCH_KEYS``
    Key-space size (paper: 1,000,000; default here: 32,768 — the Zipf
    0.99 skew makes the hot set far smaller than either).
``REPRO_BENCH_MEASURE_MS`` / ``REPRO_BENCH_WARMUP_MS``
    Measurement and warm-up phases per data point (paper: 50 s / 10 s;
    defaults: 100 ms / 50 ms of simulated time, which at several hundred
    thousand ops/sec still aggregates tens of thousands of samples).
``REPRO_BENCH_CLIENTS``
    Closed-loop clients at saturation (peak-throughput points).

The simulator's CPU cost constants (``CpuCosts``, ``KvConfig``,
``RaftCosts``) were tuned so that Figure 7's saturation curves put each
system's knee near its Table 2 provisioning
(:data:`repro.cluster.provision.TABLE2`; fig7's
``table2_cores_land_in_one_band`` gate holds the tuning to it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.sim.units import MS

__all__ = ["BenchScale", "DEFAULT_SCALE", "SMOKE_SCALE"]


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    return float(value) if value else default


@dataclass(frozen=True)
class BenchScale:
    """Scale of one experiment run."""

    keys: int = field(default_factory=lambda: _env_int("REPRO_BENCH_KEYS", 32_768))
    warmup_us: float = field(
        default_factory=lambda: _env_float("REPRO_BENCH_WARMUP_MS", 50.0) * MS
    )
    measure_us: float = field(
        default_factory=lambda: _env_float("REPRO_BENCH_MEASURE_MS", 100.0) * MS
    )
    clients: int = field(default_factory=lambda: _env_int("REPRO_BENCH_CLIENTS", 48))
    value_bytes: int = 992
    zipf_theta: float = 0.99
    wal_entries: int = 8_192
    kv_wal_entries: int = 16_384


DEFAULT_SCALE = BenchScale()

#: Pinned scale for the CI ``bench-smoke`` job and the committed
#: baselines under ``benchmarks/baselines/``.  Every field is written
#: out explicitly — no environment lookups — so the artifacts it
#: produces are byte-identical on any host running the same code.
SMOKE_SCALE = BenchScale(
    keys=4_096,
    warmup_us=20 * MS,
    measure_us=40 * MS,
    clients=12,
    value_bytes=992,
    zipf_theta=0.99,
    wal_entries=8_192,
    kv_wal_entries=16_384,
)
