"""Measurement: throughput windows and latency distributions.

The evaluation reports mean throughput over a measurement phase,
latency medians / 95th percentiles (Fig. 6), and 100 ms-window
throughput timelines for the failure experiments (Figs. 11-12, §6.5).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import percentile
from repro.sim.units import MS

__all__ = ["Metrics", "percentile"]


class Metrics:
    """Collects per-operation completions during a measurement window."""

    def __init__(
        self,
        window_us: float = 100 * MS,  # §6.5: "measure in 100ms intervals"
        reservoir: int = 200_000,
        seed: int = 7,
    ):
        self.window_us = window_us
        self.reservoir = reservoir
        self._rng = random.Random(seed)
        self.measuring = False
        self.measure_start = 0.0
        self.measure_end: Optional[float] = None
        self.completed = 0
        self.errors = 0
        self.windows: Dict[int, int] = {}
        self.latencies: Dict[str, List[float]] = {}
        self._seen: Dict[str, int] = {}

    # -- collection -----------------------------------------------------------

    def begin(self, now: float) -> None:
        """Start measuring (end of warm-up)."""
        self.measuring = True
        self.measure_start = now

    def end(self, now: float) -> None:
        """Stop measuring."""
        self.measuring = False
        self.measure_end = now

    def record(self, op: str, start_us: float, end_us: float) -> None:
        """Record one completed operation."""
        self.windows[int(end_us // self.window_us)] = (
            self.windows.get(int(end_us // self.window_us), 0) + 1
        )
        if not self.measuring:
            return
        self.completed += 1
        latency = end_us - start_us
        bucket = self.latencies.setdefault(op, [])
        seen = self._seen.get(op, 0) + 1
        self._seen[op] = seen
        if len(bucket) < self.reservoir:
            bucket.append(latency)
        else:  # reservoir sampling keeps the distribution unbiased
            slot = self._rng.randrange(seen)
            if slot < self.reservoir:
                bucket[slot] = latency

    def record_error(self) -> None:
        """Count a failed operation."""
        if self.measuring:
            self.errors += 1

    # -- reporting -----------------------------------------------------------

    def throughput(self) -> float:
        """Mean ops/sec over the measurement phase."""
        if self.measure_end is None:
            raise RuntimeError("measurement not ended")
        elapsed_s = (self.measure_end - self.measure_start) / 1e6
        return self.completed / elapsed_s if elapsed_s > 0 else 0.0

    def latency(self, op: str, p: float) -> float:
        """Latency percentile in microseconds for one op type.

        0.0 when no operation of this type completed while measuring.
        """
        return percentile(self.latencies.get(op, []), p)

    def publish(self, registry, prefix: str = "bench") -> None:
        """Push this collector's results into a metrics registry.

        Gauges only — the collector is the source of truth; the registry
        snapshot is what lands in the ``BENCH_*.json`` artifact.
        """
        registry.gauge(f"{prefix}.completed").set(self.completed)
        registry.gauge(f"{prefix}.errors").set(self.errors)
        if self.measure_end is not None:
            registry.gauge(f"{prefix}.throughput_ops").set(self.throughput())
        for op in sorted(self.latencies):
            samples = self.latencies[op]
            registry.gauge(f"{prefix}.latency_us", op=op, p="50").set(
                percentile(samples, 50)
            )
            registry.gauge(f"{prefix}.latency_us", op=op, p="95").set(
                percentile(samples, 95)
            )

    def timeline(self, start_us: float, end_us: float) -> List[Tuple[float, float]]:
        """(window start seconds, ops/sec) series for Figs. 11-12.

        Whole windows only: the window holding *end_us* was cut short by
        the end of the run, and its count read at full-window scale is a
        collapse that never happened.
        """
        first = int(start_us // self.window_us)
        partial = int(end_us // self.window_us)
        scale = 1e6 / self.window_us
        return [
            (w * self.window_us / 1e6, self.windows.get(w, 0) * scale)
            for w in range(first, partial)
        ]
