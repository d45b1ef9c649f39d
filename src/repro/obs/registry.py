"""Counters, gauges, and histograms with a labelled registry.

The registry is the machine-readable side of a run: verbs issued by
type, bytes on the wire, core-microseconds burned per node, RPC vs
one-sided ratios, cache hit rates.  Both the benchmark harness
(:mod:`repro.bench`) and the chaos runner (:mod:`repro.chaos.runner`)
publish into it, and :mod:`repro.obs.artifact` embeds a snapshot in
every ``BENCH_*.json``.

Like tracing, collection is off by default and costs one ``is not
None`` check per instrumented site when disabled.  All values derive
from virtual time and seeded RNG, so a snapshot is deterministic in
the experiment seed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import state

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SloHistogram",
    "MetricsRegistry",
    "percentile",
    "percentile_labels",
    "current_registry",
    "set_registry",
    "collecting",
]


def percentile(samples: Sequence[float], p: float, default: float = 0.0) -> float:
    """The *p*-th percentile (0..100) by linear interpolation.

    An empty sample list returns *default* (0.0) instead of raising: a
    100 ms timeline window that completes zero operations mid-failover
    (Figs. 11-12 under aggressive chaos schedules) is a legitimate
    observation, not an error.
    """
    if not samples:
        return default
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def percentile_labels(percentiles: Sequence[float]) -> Dict[str, float]:
    """Ordered ``label -> p`` map with ``p{p:g}`` collisions deduped.

    ``99.9`` and ``99.90`` both format to ``p99.9``; the first
    occurrence wins so a summary never emits the same key twice.
    """
    out: Dict[str, float] = {}
    for p in percentiles:
        label = f"p{p:g}"
        if label not in out:
            out[label] = p
    return out


def _key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical series key: ``name{k=v,...}`` with sorted label names."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.key} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """A sample distribution summarised as count/sum/min/max/percentiles.

    Samples are kept exactly (benchmark runs are bounded); the summary
    computes percentiles with :func:`percentile`.
    """

    __slots__ = ("key", "samples")

    PERCENTILES = (50.0, 95.0, 99.0, 99.9)

    def __init__(self, key: str):
        self.key = key
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def percentile(self, p: float) -> float:
        """The *p*-th percentile, 0.0 when no samples were recorded."""
        return percentile(self.samples, p)

    def summary(self) -> Dict[str, float]:
        """The JSON-friendly digest embedded in artifacts."""
        out: Dict[str, float] = {"count": float(self.count), "sum": self.total}
        if self.samples:
            out["min"] = min(self.samples)
            out["max"] = max(self.samples)
        for label, p in percentile_labels(self.PERCENTILES).items():
            out[label] = self.percentile(p)
        return out


def _slo_edges() -> Tuple[float, ...]:
    """The shared fixed bucket edges: 1 µs .. ~2^31.5 µs, √2 growth.

    ``math.sqrt`` is correctly rounded by IEEE 754 and float multiply
    is exact-rounded, so repeated multiplication yields bit-identical
    edges on every platform — a requirement for byte-stable artifacts.
    """
    growth = math.sqrt(2.0)
    edges = [1.0]
    for _ in range(63):
        edges.append(edges[-1] * growth)
    return tuple(edges)


class SloHistogram:
    """A fixed-bucket log-scale latency histogram for SLO reporting.

    Unlike :class:`Histogram` (exact samples, bounded runs), this keeps
    only per-bucket counts plus exact count/sum/min/max — O(1) memory
    for the million-client workloads of ROADMAP item 5 — and merges
    across ``--jobs`` workers exactly: bucket counts are integers, so
    elementwise addition loses nothing, and the float sum is folded in
    the same declared point order a serial run would use.

    Percentiles (p50/p99/p999) are estimated by linear interpolation
    inside the covering bucket, clamped to the observed min/max.
    """

    __slots__ = ("key", "counts", "total", "vmin", "vmax")

    EDGES = _slo_edges()
    PERCENTILES = (50.0, 99.0, 99.9)

    def __init__(self, key: str):
        self.key = key
        self.counts = [0] * (len(self.EDGES) + 1)
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample (a latency in virtual microseconds)."""
        value = float(value)
        self.counts[bisect_right(self.EDGES, value)] += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    @property
    def count(self) -> int:
        return sum(self.counts)

    def percentile(self, p: float) -> float:
        """Bucket-interpolated *p*-th percentile, 0.0 with no samples."""
        n = self.count
        if n == 0:
            return 0.0
        target = (p / 100.0) * n
        edges = self.EDGES
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = 0.0 if i == 0 else edges[i - 1]
                upper = edges[i] if i < len(edges) else self.vmax
                frac = (target - cumulative) / bucket_count
                estimate = lower + frac * (upper - lower)
                return min(max(estimate, self.vmin), self.vmax)
            cumulative += bucket_count
        return self.vmax  # pragma: no cover - target <= n always lands above

    def summary(self) -> Dict[str, float]:
        """The JSON-friendly digest embedded in artifact slo sections."""
        n = self.count
        out: Dict[str, float] = {"count": float(n), "sum": self.total}
        if n:
            out["min"] = self.vmin
            out["max"] = self.vmax
        for label, p in percentile_labels(self.PERCENTILES).items():
            out[label] = self.percentile(p)
        return out

    def state(self) -> Dict[str, Any]:
        """Lossless state for :meth:`MetricsRegistry.dump`."""
        return {
            "counts": list(self.counts),
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }

    def merge_state(self, other: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one exactly."""
        counts = other["counts"]
        if len(counts) != len(self.counts):
            raise ValueError(
                f"slo histogram {self.key}: bucket layout mismatch "
                f"({len(counts)} vs {len(self.counts)})"
            )
        for i, c in enumerate(counts):
            self.counts[i] += int(c)
        self.total += float(other["sum"])
        incoming_min, incoming_max = other["min"], other["max"]
        if incoming_min is not None and (self.vmin is None or incoming_min < self.vmin):
            self.vmin = float(incoming_min)
        if incoming_max is not None and (self.vmax is None or incoming_max > self.vmax):
            self.vmax = float(incoming_max)


class MetricsRegistry:
    """Get-or-create registry of labelled counters, gauges, histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._slos: Dict[str, SloHistogram] = {}

    # -- series access ---------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for (name, labels), created on first use."""
        key = _key(name, labels)
        series = self._counters.get(key)
        if series is None:
            series = self._counters[key] = Counter(key)
        return series

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        key = _key(name, labels)
        series = self._gauges.get(key)
        if series is None:
            series = self._gauges[key] = Gauge(key)
        return series

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for (name, labels), created on first use."""
        key = _key(name, labels)
        series = self._histograms.get(key)
        if series is None:
            series = self._histograms[key] = Histogram(key)
        return series

    def slo(self, name: str, **labels: Any) -> SloHistogram:
        """The SLO histogram for (name, labels), created on first use."""
        key = _key(name, labels)
        series = self._slos.get(key)
        if series is None:
            series = self._slos[key] = SloHistogram(key)
        return series

    # -- queries ---------------------------------------------------------

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """The current value of a counter or gauge, or None if absent."""
        key = _key(name, labels)
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return None

    def sum_counters(self, prefix: str) -> float:
        """Total across every counter whose key starts with *prefix*."""
        return sum(c.value for k, c in self._counters.items() if k.startswith(prefix))

    def items(self) -> List[Tuple[str, float]]:
        """(key, value) for every counter and gauge, sorted by key."""
        pairs = [(k, c.value) for k, c in self._counters.items()]
        pairs += [(k, g.value) for k, g in self._gauges.items()]
        return sorted(pairs)

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-friendly dump of every series."""
        snapshot = {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].summary() for k in sorted(self._histograms)
            },
        }
        if self._slos:
            snapshot["slo"] = {k: self._slos[k].summary() for k in sorted(self._slos)}
        return snapshot

    # -- cross-process merging -------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """Raw, lossless state for shipping across process boundaries.

        Unlike :meth:`snapshot`, histograms keep their full sample lists
        so :meth:`merge_dump` can reproduce exact percentiles and
        float-addition order on the receiving side.
        """
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {k: list(h.samples) for k, h in self._histograms.items()},
            "slo": {k: s.state() for k, s in self._slos.items()},
        }

    def merge_dump(self, dump: Dict[str, Any]) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Counters add, gauges take the incoming value (last write wins —
        callers must merge in the same order a serial run would have
        published), and histograms extend with the raw samples, so the
        merged registry is byte-identical to one that collected every
        series itself in that order.
        """
        for key, value in dump.get("counters", {}).items():
            series = self._counters.get(key)
            if series is None:
                series = self._counters[key] = Counter(key)
            series.value += value
        for key, value in dump.get("gauges", {}).items():
            series = self._gauges.get(key)
            if series is None:
                series = self._gauges[key] = Gauge(key)
            series.value = float(value)
        for key, samples in dump.get("histograms", {}).items():
            series = self._histograms.get(key)
            if series is None:
                series = self._histograms[key] = Histogram(key)
            series.samples.extend(float(s) for s in samples)
        for key, slo_state in dump.get("slo", {}).items():
            series = self._slos.get(key)
            if series is None:
                series = self._slos[key] = SloHistogram(key)
            series.merge_state(slo_state)


# -- installation ---------------------------------------------------------


def current_registry() -> Optional[MetricsRegistry]:
    """The globally installed registry, or None when collection is off."""
    return state.REGISTRY


def set_registry(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install (or, with None, remove) the global registry; returns the old one."""
    previous = state.REGISTRY
    state.REGISTRY = registry
    return previous


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Enable metric collection for a ``with`` block; restores the previous."""
    active = registry if registry is not None else MetricsRegistry()
    previous = set_registry(active)
    try:
        yield active
    finally:
        set_registry(previous)
