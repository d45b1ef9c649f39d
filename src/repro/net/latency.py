"""Latency models for message and verb delivery.

Two calibrated profiles matter for the reproduction:

* the **RDMA path** — microsecond-scale base latency plus a 10 GbE
  serialisation term (the evaluation cluster used Mellanox 10GbE ports);
* the **RPC path** — the custom select-based RPC over TCP, to which the
  paper attributes ~50 µs of each request's latency (§6.3.3).

Models are sampled per message with a small lognormal-ish jitter so that
queueing effects and tail latencies emerge rather than being hard-coded.
"""

from __future__ import annotations

import random

__all__ = ["LatencyModel", "FixedLatency", "LinearLatency"]

TEN_GBE_BYTES_PER_US = 1250.0
"""Serialisation rate of a 10 GbE link: 1.25 GB/s = 1250 bytes/µs."""


class LatencyModel:
    """Base class: maps a message size to a one-way delivery latency."""

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        """Return a one-way latency in microseconds for *size_bytes*."""
        raise NotImplementedError

    def mean(self, size_bytes: int = 0) -> float:
        """The jitter-free expected latency, used for capacity planning."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """A constant latency regardless of message size (useful in tests)."""

    def __init__(self, latency_us: float):
        if latency_us < 0:
            raise ValueError(f"negative latency: {latency_us}")
        self.latency_us = latency_us

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        return self.latency_us

    def mean(self, size_bytes: int = 0) -> float:
        return self.latency_us

    def __repr__(self) -> str:
        return f"FixedLatency({self.latency_us}us)"


class LinearLatency(LatencyModel):
    """``base + size/bandwidth`` with optional multiplicative jitter.

    *jitter* is the fractional standard deviation of a clipped Gaussian
    multiplier; 0 disables it.  The multiplier is clipped at 3 sigma and
    never below 0.2x so pathological samples cannot reorder time.
    """

    def __init__(
        self,
        base_us: float,
        bytes_per_us: float = TEN_GBE_BYTES_PER_US,
        jitter: float = 0.0,
    ):
        if base_us < 0:
            raise ValueError(f"negative base latency: {base_us}")
        if bytes_per_us <= 0:
            raise ValueError(f"non-positive bandwidth: {bytes_per_us}")
        if jitter < 0:
            raise ValueError(f"negative jitter: {jitter}")
        self.base_us = base_us
        self.bytes_per_us = bytes_per_us
        self.jitter = jitter
        self._max_multiplier = 1.0 + 3.0 * jitter

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        latency = self.base_us + size_bytes / self.bytes_per_us
        if self.jitter:
            multiplier = rng.gauss(1.0, self.jitter)
            if multiplier > self._max_multiplier:
                multiplier = self._max_multiplier
            elif multiplier < 0.2:
                multiplier = 0.2
            latency *= multiplier
        return latency

    def mean(self, size_bytes: int = 0) -> float:
        return self.base_us + size_bytes / self.bytes_per_us

    def __repr__(self) -> str:
        return (
            f"LinearLatency(base={self.base_us}us, "
            f"bw={self.bytes_per_us}B/us, jitter={self.jitter})"
        )
