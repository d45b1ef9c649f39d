"""Two-sided RDMA SEND/RECV messaging.

The Raft-R baseline is "a basic Raft-like system using RDMA send/recv
verbs" (§6.3.1): messages travel on the RDMA latency profile, but —
unlike one-sided verbs — the *receiver's CPU* must process each message.
This module provides the mailbox-style messenger those followers use.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.net.host import Host
from repro.rdma.nic import Rnic
from repro.sim.engine import Event

__all__ = ["RdmaMessenger"]


class RdmaMessenger:
    """SEND/RECV endpoint: a receive queue drained by host processes."""

    def __init__(self, host: Host, nic: Rnic, name: str = "msgr"):
        self.host = host
        self.nic = nic
        self.name = name
        self._queue: Deque[Any] = deque()
        self._waiters: Deque[Event] = deque()
        host.services[f"rdma-msgr:{name}"] = self

    # -- sending ---------------------------------------------------------------

    def send(self, dst: "RdmaMessenger", payload: Any, size_bytes: int) -> None:
        """Post a SEND toward *dst* (fire-and-forget, reliable transport).

        Delivery charges the sender's NIC transmit queue and the RDMA
        propagation latency; a dead or partitioned receiver silently
        drops the message, as an errored QP would.
        """
        cost = size_bytes / self.nic.bytes_per_us + self.nic.verb_overhead_us
        self.nic._txq.submit(cost, self._serialised, dst, payload)

    def _serialised(self, dst: "RdmaMessenger", payload: Any) -> None:
        if self.host.alive:
            self.nic.ordered_deliver(dst.host, dst._deliver, payload)

    # -- receiving ---------------------------------------------------------------

    def recv(self) -> Event:
        """Event that triggers with the next message (FIFO)."""
        event = Event(self.host.sim)
        if self._queue:
            event.trigger(self._queue.popleft())
        else:
            self._waiters.append(event)
        return event

    def _deliver(self, payload: Any) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.try_trigger(payload):
                return
        self._queue.append(payload)

    def on_host_crash(self) -> None:
        """Receive queue is soft state; it dies with the host."""
        self._queue.clear()
        self._waiters.clear()

    def __len__(self) -> int:
        return len(self._queue)
