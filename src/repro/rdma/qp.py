"""Reliable-connection queue pairs and the one-sided verbs.

A queue pair binds a requester NIC to a target host's listener and a set
of granted regions.  Verbs return simulation events:

* :meth:`QueuePair.read`  — fetch bytes, response carries the payload;
* :meth:`QueuePair.write` — store bytes, response is a small ack;
* :meth:`QueuePair.cas`   — 64-bit compare-and-swap, returns the *old*
  value (success is inferred by the caller, as with real atomics).

Verb completion is an RC acknowledgement: when the event triggers, the
remote memory holds the update.  Ordering within a queue pair follows
from the NIC's FIFO transmit queue, which the protocol relies on when it
"uses RDMA's ordering guarantees to maintain consistent state" (§3.3.2).
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import partial
from typing import Iterable, Optional, Tuple

from repro.rdma.errors import RdmaConnectionRevoked, RdmaError
from repro.rdma.listener import RdmaListener
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import PostedVerb, Rnic
from repro.sim.engine import Event

__all__ = ["QueuePair", "QpState"]

_qp_ids = itertools.count(1)

CAS_WIRE_BYTES = 28  # ETH+IB headers dominate; payload is 8B compare + 8B swap
ACK_WIRE_BYTES = 12


class QpState(Enum):
    """Connection lifecycle states."""

    INIT = "init"
    CONNECTED = "connected"
    REVOKED = "revoked"
    CLOSED = "closed"
    ERROR = "error"


class QueuePair:
    """A reliable connection from a requester to a target's regions."""

    def __init__(self, nic: Rnic, listener: RdmaListener, name: str = ""):
        self.nic = nic
        self.listener = listener
        self.qp_id = next(_qp_ids)
        self.name = name or f"qp{self.qp_id}"
        self.state = QpState.INIT
        self.granted: Tuple[str, ...] = ()
        self._remote_incarnation: Optional[int] = None

    @property
    def target(self):
        """The host on the far end of the connection."""
        return self.listener.host

    # -- connection management -------------------------------------------------

    def connect(self, region_names: Iterable[str]):
        """Process: establish the connection (the target CPU's only role).

        Yields inside a host process.  Raises :class:`Unreachable` when the
        handshake gets no answer within the NIC's verb timeout, and
        :class:`RdmaError` when the target dies or refuses the grant.
        """
        names = tuple(region_names)
        nic = self.nic
        target = self.target

        # Connection handshake: one round trip plus target CPU time to
        # register the QP context and check grants.
        yield nic.fabric.round_trip(
            nic.host, target, 256, 256, nic.timeout_us, latency=nic.propagation, stream="rdma"
        )
        yield target.execute(self.listener.connect_cpu_us)
        if not target.alive:
            raise RdmaError(f"{target.name} died during connect")
        self.listener.attach(self, names)
        self.granted = names
        self._remote_incarnation = target.incarnation
        self.state = QpState.CONNECTED
        return self

    def close(self) -> None:
        """Gracefully drop the connection (no remote round trip modelled)."""
        if self.state is QpState.CONNECTED:
            self.listener.detach(self)
        self.state = QpState.CLOSED

    def revoke(self, reason: str) -> None:
        """Called by the listener when a newer exclusive connection lands."""
        if self.state is QpState.CONNECTED:
            self.state = QpState.REVOKED

    # -- verbs -------------------------------------------------------------------

    def read(
        self, region_name: str, offset: int, length: int, share: Optional[dict] = None
    ) -> Event:
        """One-sided READ of *length* bytes; event value is the payload (pages into *share*)."""
        return self.nic.post(
            self._stage(
                region_name, ACK_WIRE_BYTES, length, "read", None,
                MemoryRegion.read, offset, length, share,
            )
        )

    def write(
        self,
        region_name: str,
        offset: int,
        data: bytes,
        timeout_us: Optional[float] = None,
        share: Optional[dict] = None,
    ) -> Event:
        """One-sided WRITE; completion ack means remote memory is updated.

        *timeout_us* overrides the NIC's per-verb retry budget — bulk
        recovery pushes queue many large payloads behind one transmit
        queue, so their legitimate completion times exceed the default
        budget sized for request/response traffic.  *share* is the share
        scope (:mod:`repro.rdma.memory`) of the operation writing *data*.
        """
        payload = bytes(data)
        return self.nic.post(
            self._stage(
                region_name, len(payload), ACK_WIRE_BYTES, "write", timeout_us,
                MemoryRegion.write, offset, payload, share,
            )
        )

    def cas(self, region_name: str, offset: int, expected: int, new: int) -> Event:
        """One-sided 64-bit CAS; event value is the previous word."""
        return self.nic.post(
            self._stage(
                region_name, CAS_WIRE_BYTES, ACK_WIRE_BYTES, "cas", None,
                MemoryRegion.compare_and_swap, offset, expected, new,
            )
        )

    def read_word(self, region_name: str, offset: int) -> Event:
        """One-sided 8-byte READ returning an integer (heartbeat reads)."""
        return self.nic.post(
            self._stage(
                region_name, ACK_WIRE_BYTES, 8, "read_word", None,
                MemoryRegion.read_word, offset,
            )
        )

    # -- mechanics ---------------------------------------------------------------

    def _stage(
        self,
        region_name: str,
        request_bytes: int,
        response_bytes: int,
        verb: str,
        timeout_us: Optional[float],
        op,
        *args,
    ) -> PostedVerb:
        """The verb ``op(region, *args)`` as an unposted record; refused
        here (``done`` already failed) when the connection or the grant
        would refuse it."""
        post = PostedVerb(
            self.nic,
            self.listener.host,
            request_bytes,
            response_bytes,
            partial(self._apply, region_name, op, *args),
            verb,
            timeout_us,
        )
        if self.state is not QpState.CONNECTED:
            post.done.fail(self._state_error())
        elif region_name not in self.granted:
            post.done.fail(RdmaError(f"{self.name}: region {region_name!r} not granted"))
        return post

    def _apply(self, region_name: str, op, *args):
        """Runs at the target at the arrival instant: the fencing checks
        the remote NIC would make, then the verb itself."""
        if self._remote_incarnation != self.listener.host.incarnation:
            raise RdmaError(f"{self.name}: stale connection (peer rebooted)")
        if self.state is QpState.REVOKED:
            raise RdmaConnectionRevoked(f"{self.name}: connection revoked")
        if self.state is not QpState.CONNECTED:
            raise self._state_error()
        return op(self.listener.lookup(region_name), *args)

    def _state_error(self) -> RdmaError:
        if self.state is QpState.REVOKED:
            return RdmaConnectionRevoked(f"{self.name}: connection revoked")
        return RdmaError(f"{self.name}: queue pair in state {self.state.value}")

    def __repr__(self) -> str:
        return (
            f"<QueuePair {self.name} {self.nic.host.name}->{self.target.name} "
            f"{self.state.value}>"
        )
