"""Remotely mounted SAN / EBS device (§3.5).

"Alternatively, the coordinator can persist logs onto a remotely
mounted Storage Area Network (SAN) device, such as EBS on Amazon EC2,
using a write-ahead logging strategy."

The device is a host on the fabric with a millisecond-scale write
latency (EBS-class) and a FIFO ordering guarantee; the coordinator
appends log records and can await durability.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.net.errors import Unreachable
from repro.net.fabric import Fabric
from repro.net.host import Host
from repro.net.latency import LinearLatency
from repro.sim.engine import Event

__all__ = ["SanDevice"]

EBS_LATENCY = LinearLatency(base_us=500.0, bytes_per_us=250.0, jitter=0.15)
"""EBS-class: ~0.5-1 ms writes, ~250 MB/s throughput."""

APPEND_TIMEOUT_US = 100_000.0
"""An append not acked within 100 ms (a hundred EBS write times) is lost:
the device crashed or was cut off with the request in flight."""


class _SanRecord(NamedTuple):
    offset: int
    data: bytes


class SanDevice:
    """A durable append-only volume reachable over the network."""

    def __init__(self, fabric: Fabric, name: str = "san"):
        self.fabric = fabric
        self.host: Host = fabric.add_host(name, cores=2)
        self._log: List[_SanRecord] = []
        self._bytes = 0

    @property
    def record_count(self) -> int:
        return len(self._log)

    def append(self, src: Host, data: bytes) -> Event:
        """Write *data* durably; the event triggers on the write ack, or
        fails with :class:`Unreachable` when no ack comes within
        :data:`APPEND_TIMEOUT_US`."""
        done = src.sim.within(
            Event(src.sim),
            APPEND_TIMEOUT_US,
            Unreachable,
            f"SAN {self.host.name}: no ack within {APPEND_TIMEOUT_US}us",
        )
        payload = bytes(data)

        def arrive() -> None:
            self._log.append(_SanRecord(self._bytes, payload))
            self._bytes += len(payload)
            self.fabric.deliver(
                self.host, src, 64, lambda: done.try_trigger(self._bytes),
                latency=EBS_LATENCY, stream="san",
            )

        sent = self.fabric.deliver(
            src, self.host, len(payload), arrive, latency=EBS_LATENCY, stream="san"
        )
        if not sent:
            done.try_fail(Unreachable(f"SAN {self.host.name} unreachable"))
        return done

    def read_all(self) -> bytes:
        """Recovery: the concatenated durable log."""
        return b"".join(record.data for record in self._log)
