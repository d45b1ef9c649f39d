"""Persistence options (§3.5).

By default Sift keeps all state in volatile memory.  The paper describes
two persistence strategies; this package implements the RocksDB one (the
WAL-to-SAN one, appending the log to a remote EBS-class device, is not
modelled):

* :mod:`~repro.persist.rocks` — a RocksDB substitute
  (:class:`RocksLite`): an append-only WAL file plus memtable with
  checkpointing, giving the same code path as the paper's "design using
  RocksDB, where all updates are synchronously written to the persistent
  database by a background thread", and whose snapshots enable the
  alternative snapshot-based memory-node recovery.
* :mod:`~repro.persist.sink` — the coordinator-side background syncer
  bridging committed KV updates into the store, with bounded
  outstanding writes ("by limiting the number of outstanding writes to
  be the size of the log").
"""

from repro.persist.rocks import RocksLite
from repro.persist.sink import PersistenceSink

__all__ = ["PersistenceSink", "RocksLite"]
