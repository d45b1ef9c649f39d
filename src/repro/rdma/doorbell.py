"""Doorbell-style verb batching.

Real RDMA NICs let a requester chain several work requests in the send
queue and ring the doorbell once: the PCIe MMIO write (and the NIC's
WQE fetch that follows) is paid per *doorbell*, not per verb.  Mu and
Velos both lean on this to fit replication inside a microsecond budget;
Sift's WAL-append fan-out (§4) has the same shape — one coordinator
posting the same image to every memory node.

The model here mirrors that split:

* :meth:`~repro.rdma.qp.QueuePair.prepare_write` stages a WRITE without
  touching the NIC and returns a :class:`~repro.rdma.nic.PostedVerb`;
* :meth:`~repro.rdma.nic.Rnic.post_many` flushes a list of prepared
  verbs under **one** ``verb_overhead_us`` charge (the doorbell), with
  the payloads serialised back-to-back at link bandwidth;
* :class:`DoorbellQueue` is the convenience accumulator for callers
  that build a flush incrementally.

Per-verb delivery, remote application, acks, timeout guards and
failure handling are the same :class:`~repro.rdma.nic.PostedVerb`
record the unbatched :meth:`~repro.rdma.nic.Rnic.transfer` issues, so
RC ordering per target and all error semantics are unchanged — only
the per-verb doorbell overhead is amortized.  Batching is opt-in (see
``SiftConfig.doorbell_batching``); with it off, simulated timings are
bit-identical to the unbatched path.
"""

from __future__ import annotations

from typing import List

from repro.rdma.nic import PostedVerb, Rnic
from repro.sim.engine import Event

__all__ = ["DoorbellQueue"]


class DoorbellQueue:
    """Accumulate prepared verbs and flush them one doorbell at a time.

    ``max_posts`` bounds the batch the way a send queue bounds chained
    WQEs; hitting it rings the doorbell automatically.  Callers that
    batch one logical operation's fan-out (e.g. a WAL append to every
    memory node) typically :meth:`post` each prepared verb and
    :meth:`ring` once.
    """

    def __init__(self, nic: Rnic, max_posts: int = 16):
        if max_posts < 1:
            raise ValueError("max_posts must be >= 1")
        self.nic = nic
        self.max_posts = max_posts
        self._posts: List[PostedVerb] = []

    def __len__(self) -> int:
        return len(self._posts)

    def post(self, prepared: PostedVerb) -> Event:
        """Queue one prepared verb; auto-flush when the queue fills."""
        self._posts.append(prepared)
        if len(self._posts) >= self.max_posts:
            self.ring()
        return prepared.done

    def ring(self) -> List[Event]:
        """Flush everything queued under a single doorbell charge."""
        posts, self._posts = self._posts, []
        if posts:
            self.nic.post_many(posts)
        return [post.done for post in posts]
