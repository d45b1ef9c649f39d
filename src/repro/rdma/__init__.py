"""Simulated one-sided RDMA substrate.

Sift's architecture rests on four properties of one-sided RDMA (§2.2,
§3.1 of the paper), all of which this package models explicitly:

1. **Passivity** — READ/WRITE/CAS execute against a registered memory
   region without involving the target host's CPU; only connection setup
   touches it.
2. **Atomicity** — CAS operates on an aligned 64-bit word atomically and
   returns the previous value.
3. **Reliability** — the reliable-connection (RC) transport acknowledges
   every completed verb; completion means the remote memory was updated.
4. **Connection fencing** — a memory region can be exported with
   at-most-one-connection semantics: accepting a new queue pair revokes
   the previous one, so delayed writes from a deposed coordinator are
   dropped by the "hardware" (§3.2, network-partition safety).

Public surface:

* :class:`~repro.rdma.memory.MemoryRegion` — byte-addressable registered
  memory with 64-bit CAS.
* :class:`~repro.rdma.nic.Rnic` — per-host NIC with a serialisation queue.
* :class:`~repro.rdma.qp.QueuePair` — verbs (READ / WRITE / CAS) over RC.
* :class:`~repro.rdma.listener.RdmaListener` — the target-side region
  export table (the only part that uses the target CPU).
* :class:`~repro.rdma.messaging.RdmaMessenger` — two-sided SEND/RECV used
  by the Raft-R baseline.
* :class:`~repro.rdma.nic.PostedVerb` — one verb's in-flight record,
  from its transmit queue to its completion.
"""

from repro.rdma.errors import (
    RdmaConnectionRevoked,
    RdmaError,
    RdmaProtectionError,
    RdmaTimeout,
)
from repro.rdma.listener import RdmaListener
from repro.rdma.memory import MemoryRegion
from repro.rdma.messaging import RdmaMessenger
from repro.rdma.nic import PostedVerb, Rnic
from repro.rdma.qp import QueuePair

__all__ = [
    "MemoryRegion",
    "PostedVerb",
    "QueuePair",
    "RdmaConnectionRevoked",
    "RdmaError",
    "RdmaListener",
    "RdmaMessenger",
    "RdmaProtectionError",
    "RdmaTimeout",
    "Rnic",
]
