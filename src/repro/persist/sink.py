"""Coordinator-side persistence sink (§3.5).

"We have implemented such a design using RocksDB, where all updates are
synchronously written to the persistent database by a background
thread.  By limiting the number of outstanding writes to be the size of
the log, this design also allows for an alternative to memory node
recovery by using snapshots of the database to repopulate the state
machine of the new memory node."

The sink is a simulated background process: committed KV records are
queued, drained in batches, written to a :class:`~repro.persist.rocks.
RocksLite` store, and fsynced — charging simulated time per batch so
the persistence path shows up in measurements.  Queue capacity is the
KV WAL size; when the queue is full, enqueue blocks the applier, which
in turn backpressures puts exactly as the paper describes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.kv.layout import OP_PUT, WalRecord
from repro.net.host import Host
from repro.persist.rocks import RocksLite
from repro.sim.engine import Event

__all__ = ["PersistenceSink"]


class PersistenceSink:
    """Bridges committed KV records into a persistent store."""

    def __init__(
        self,
        host: Host,
        store: RocksLite,
        capacity: int = 64 * 1024,
        batch_max: int = 256,
        sync_us: float = 120.0,
        per_record_us: float = 1.0,
    ):
        self.host = host
        self.store = store
        self.capacity = capacity
        self.batch_max = batch_max
        self.sync_us = sync_us
        self.per_record_us = per_record_us
        self._queue: Deque[WalRecord] = deque()
        self._kick: Optional[Event] = None
        self._space: List[Event] = []
        self.running = False
        self.persisted = 0

    def start(self) -> None:
        """Spawn the background writer."""
        self.running = True
        self.host.spawn(self._writer(), name="persist-sink")

    def stop(self) -> None:
        """Stop draining (pending queue is dropped; the WAL re-covers it)."""
        self.running = False
        if self._kick is not None:
            self._kick.try_trigger(None)

    @property
    def backlog(self) -> int:
        """Records waiting to be persisted."""
        return len(self._queue)

    def offer(self, record: WalRecord):
        """Process: enqueue a committed record, blocking when full."""
        while len(self._queue) >= self.capacity:
            waiter = Event(self.host.sim)
            self._space.append(waiter)
            yield waiter
        self._queue.append(record)
        if self._kick is not None:
            kick, self._kick = self._kick, None
            kick.try_trigger(None)

    def _writer(self):
        while self.running:
            if not self._queue:
                kick = Event(self.host.sim)
                self._kick = kick
                yield kick
                continue
            batch = []
            while self._queue and len(batch) < self.batch_max:
                batch.append(self._queue.popleft())
            for record in batch:
                if record.op == OP_PUT:
                    self.store.put(record.key, record.value)
                else:
                    self.store.delete(record.key)
            self.store.sync()
            self.persisted += len(batch)
            yield self.host.execute(
                self.sync_us + self.per_record_us * len(batch)
            )
            if self._space:
                waiters, self._space = self._space, []
                for waiter in waiters:
                    waiter.try_trigger(None)
