"""The KV server: request handlers, background apply, recovery (§4).

The server is the coordinator's *application*: it is created by the
``app_factory`` hook when a CPU node wins an election, recovers its soft
structures from replicated memory, registers RPC handlers, and serves
until the node is deposed or crashes.

Data path (§4.2):

* **put** — assign a sequence number, append the record to the KV WAL
  with one direct (unlogged) RDMA write, update the cache (pinned), and
  reply; a background applier later walks the bucket chain and writes
  the data block / index / bitmap.
* **get** — serve from the cache when possible; on a miss, walk the
  bucket chain with one-sided reads and fill the cache.
* **delete** — like put with a tombstone record; the applier unlinks the
  block and frees its bitmap bit.

Structure writes go through :meth:`ReplicatedMemory.direct_write` in
plain-replication mode (each block write is atomic per node, and the KV
WAL replays anything torn across nodes).  With erasure coding they use
the *logged* path instead: a block striped across nodes can be half-new
chunks and half-old after a crash, and only the non-encoded
replicated-memory WAL can repair that (§5.1's stated modification).

Recovery (§4.3) loads the index table and bitmap, merges the KV WAL from
all live memory nodes with the consensus log's own merge
(:func:`repro.core.rules.merge_logs`, keyed by sequence number), replays
records above the persisted watermark, and only then serves.
The cache fills during replay, so the store restarts warm (§6.5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import rules
from repro.core.cpu_node import CpuNode
from repro.core.errors import Deposed, GroupUnavailable
from repro.core.locks import BlockLockTable, LockMode
from repro.core.recovery import scan_log
from repro.core.replicated_memory import NodeState, ReplicatedMemory
from repro.kv.cache import ValueCache
from repro.kv.config import KvConfig
from repro.kv.layout import (
    OP_DELETE,
    OP_PUT,
    WATERMARK_OFFSET,
    BlockImage,
    KvLayout,
    WalRecord,
)
from repro.net.rpc import Reply, RpcEndpoint
from repro.obs import state as obs_state
from repro.sim.engine import Event

__all__ = ["KvServer", "KvError", "kv_app_factory"]

_BULK_CHUNK = 256 * 1024  # a structure read; a preload store run
_WAL_FLOW_SLACK = 64


class KvError(Exception):
    """Client-visible KV failure (full store, oversized record, ...)."""


class KvServer:
    """One coordinator's key-value store instance."""

    def __init__(
        self,
        cpu_node: CpuNode,
        repmem: ReplicatedMemory,
        config: KvConfig,
        endpoint: RpcEndpoint,
        persistence=None,
    ):
        self.cpu_node = cpu_node
        self.repmem = repmem
        self.config = config
        self.endpoint = endpoint
        self.persistence = persistence  # optional PersistenceSink (§3.5)
        self.layout = KvLayout(config)
        self.host = cpu_node.host
        self.sim = self.host.sim
        if repmem.config.data_bytes < self.layout.data_bytes:
            raise ValueError(
                "replicated memory too small for this KV layout; build the "
                "SiftConfig with KvConfig.sift_config()"
            )

        self.cache = ValueCache(config.cache_entries)
        self.index: Optional[np.ndarray] = None  # uint64 bucket heads
        self.bitmap: Optional[bytearray] = None
        self._free_blocks = 0
        self._reserved_blocks = 0  # blocks promised to unapplied inserts
        self._ready_reservations: Dict[int, bool] = {}  # seq -> reserved
        self._alloc_hint = 0
        self._bucket_locks = BlockLockTable(self.sim)
        # In EC mode, index/bitmap updates rewrite whole blocks from the
        # local caches; concurrent appliers must serialize per structure
        # block or a later-landing write could carry a stale snapshot.
        self._structure_locks = BlockLockTable(self.sim)

        self.next_seq = 1
        self.applied_seq = 0  # contiguous: every record <= this is applied
        self._next_dispatch = 1  # next seq a worker may pick up
        # Live-migration hook (repro.control.migrate.MigrationHooks) —
        # installed/cleared by the control plane on the *current*
        # coordinator only; a successor elected mid-migration starts
        # bare and the migration manager re-installs (and restarts the
        # copy pass, so nothing acked in the window is missed).
        self.migration = None
        # Destination-side import fence: per-key source sequence floor.
        # Mirrored writes carry their source WAL seq; copy-pass imports
        # carry 0, so a stale copy read can never overwrite a newer
        # mirrored write however the two RPCs interleave.
        self._import_seqs: Dict[bytes, int] = {}
        self._done_seqs: set = set()
        self._ready: Dict[int, WalRecord] = {}
        self._apply_kicks: List[Event] = []
        self._flow_waiters: List[Event] = []
        self._pending_appends: List[Tuple[WalRecord, bytes, Event]] = []
        self._append_flusher_busy = False
        self._last_watermark = 0
        self.running = False
        self.stats = {
            "puts": 0,
            "gets": 0,
            "deletes": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "chain_reads": 0,
            "applies": 0,
            "replayed": 0,
            "migrate_stale": 0,
            "migrate_imports": 0,
            "coalesced_appends": 0,
            "apply_drops": 0,
        }

    # ------------------------------------------------------------------
    # App contract (start is a process; stop is synchronous)
    # ------------------------------------------------------------------

    def start(self):
        """Process: recover structures, replay the KV WAL, begin serving."""
        yield from self._load_structures()
        yield from self._replay_wal()
        self.running = True
        self._next_dispatch = self.applied_seq + 1
        if self.persistence is not None:
            self.persistence.start()
        for worker in range(self.config.apply_workers):
            self.host.spawn(self._applier(), name=f"kv-applier-{worker}")
        self.endpoint.register("kv.put", self.handle_put)
        self.endpoint.register("kv.get", self.handle_get)
        self.endpoint.register("kv.delete", self.handle_delete)
        self.endpoint.register("kv.mig_put", self.handle_migrate_put)
        self.endpoint.register("kv.mig_scan", self.handle_migrate_scan)

    def stop(self) -> None:
        """Tear down handlers and background work (depose path)."""
        self.running = False
        if self.persistence is not None:
            self.persistence.stop()
        self.endpoint.unregister("kv.put")
        self.endpoint.unregister("kv.get")
        self.endpoint.unregister("kv.delete")
        self.endpoint.unregister("kv.mig_put")
        self.endpoint.unregister("kv.mig_scan")
        kicks, self._apply_kicks = self._apply_kicks, []
        for kick in kicks:
            kick.try_trigger(None)
        for waiter in self._flow_waiters:
            waiter.try_fail(KvError("kv server stopped"))
        self._flow_waiters.clear()

    # ------------------------------------------------------------------
    # Recovery (§4.3)
    # ------------------------------------------------------------------

    def _load_structures(self):
        layout = self.layout
        raw = yield from self.repmem.direct_read(WATERMARK_OFFSET, 8)
        self.applied_seq = int.from_bytes(raw, "little")
        self._last_watermark = self.applied_seq

        index_raw = yield from self._bulk_read(layout.index_offset, layout.index_bytes)
        self.index = np.frombuffer(
            index_raw[: self.config.index_buckets * 8], dtype="<u8"
        ).copy()

        bitmap_raw = yield from self._bulk_read(layout.bitmap_offset, layout.bitmap_bytes)
        self.bitmap = bytearray(bitmap_raw[: (self.config.max_keys + 7) // 8])
        self._free_blocks = self.config.max_keys - sum(
            bin(byte).count("1") for byte in self.bitmap
        )

    def _bulk_read(self, addr: int, length: int):
        out = bytearray()
        offset = 0
        while offset < length:
            take = min(_BULK_CHUNK, length - offset)
            data = yield from self.repmem.read(addr + offset, take)
            # Parsing/copy cost for bulk structure loads (Fig. 12's "loading
            # the index table and bitmap" phase).
            yield self.host.execute(take / 4096.0)
            out += data
            offset += take
        return bytes(out)

    def _replay_wal(self):
        repmem, config, layout = self.repmem, self.config, self.layout
        wal_at = repmem.amap.raw_extent(layout.wal_offset)
        per_node: List[Dict[int, WalRecord]] = []
        for n in [n for n, s in repmem.states.items() if s == NodeState.LIVE and n in repmem.qps]:
            records = yield from scan_log(
                repmem.qps[n], wal_at, config.wal_entries, layout.wal_slot_bytes,
                layout.decode_wal_record,
            )
            yield self.host.execute(config.wal_entries * 0.02)  # slot scan
            per_node.append({record.seq: record for record in records})

        for record in rules.merge_logs(per_node, self.applied_seq):
            yield from self._apply_record(record)
            self.applied_seq = record.seq
            if record.op == OP_PUT:
                # "While the log is being replayed, the cache is populated
                # in parallel" (§6.5) — the store restarts warm.
                self.cache.put(record.key, record.value)
            self.stats["replayed"] += 1
        highest = max((r.seq for node in per_node for r in node.values()), default=0)
        self.next_seq = max(highest, self.applied_seq) + 1
        yield from self._persist_watermark()

    # ------------------------------------------------------------------
    # Benchmark scaffolding
    # ------------------------------------------------------------------

    def preload(self, items, warm_cache: bool = True) -> None:
        """Synchronously pre-populate the store (no simulated time).

        Experiment scaffolding for the paper's "each system is
        pre-populated with all of the keys at the start of each
        experiment" (§6.2): writes blocks, index and bitmap straight into
        every active node's memory region and the coordinator caches,
        exactly as if the puts had been applied, without burning
        wall-clock on millions of simulated RPCs.  Adjacent blocks are
        stored in bounded runs (up to 256 KiB, one region write per node).
        Must run after :meth:`start` and before any traffic.
        """
        repmem, layout = self.repmem, self.layout
        regions = [
            (n, repmem.memory_nodes[n].repmem_region)
            for n in sorted(repmem.states)
            if repmem.states[n] != "dead" and n in repmem.qps
        ]
        cache_budget = self.cache.capacity if warm_cache else 0
        run, run_addr, run_end = [], 0, 0
        try:
            for key, value in items:
                key, value = bytes(key), bytes(value)
                self._check_record(key, value)
                addr = layout.block_addr(self._allocate_block())
                bucket = layout.bucket_of(key)
                image = layout.encode_block(BlockImage(int(self.index[bucket]), key, value))
                self.index[bucket] = addr
                if addr != run_end or run_end - run_addr >= _BULK_CHUNK:
                    self._store_run(regions, run_addr, run)
                    run, run_addr = [], addr
                run.append(image)
                run_end = addr + layout.block_bytes
                if cache_budget > 0:
                    self.cache.fill(key, value, addr)
                    cache_budget -= 1
        finally:  # a refused item still leaves every block before it stored
            self._store_run(regions, run_addr, run)
        # Flush the index table and bitmap wholesale.
        self._store_run(regions, layout.index_offset, [self.index.tobytes()])
        self._store_run(regions, layout.bitmap_offset, [bytes(self.bitmap)])

    def _store_run(self, regions, addr: int, pieces: List[bytes]) -> None:
        """Store *pieces* end to end, zero-padded to whole blocks, from block-aligned
        *addr* into every region: one encode (EC) and one write per node."""
        data = b"".join(pieces)
        if not data:
            return
        amap, block_bytes = self.repmem.amap, self.repmem.config.block_bytes
        data = data.ljust(-(-len(data) // block_bytes) * block_bytes, b"\0")
        ec = self.repmem.config.erasure_coding
        offset = amap.chunk_extent(amap.block_index(addr)) if ec else amap.raw_extent(addr)
        shards = self.repmem.rs.encode(data, len(data) // block_bytes) if ec else None
        for n, region in regions:
            region.write(offset, shards[n] if ec else data)

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------

    def handle_put(self, payload: Tuple[bytes, bytes]):
        """Process: §4.2 put — one RDMA round trip to commit."""
        key, value = payload
        # Capture the hook once: a cutover mid-operation must not strand
        # a write that committed under the dual-write window unmirrored.
        hook = self.migration
        if hook is not None and hook.forwards(key):
            reply = yield from hook.forward("put", key, value)
            return reply
        seq = yield from self._local_put(key, value)
        if hook is not None and hook.mirrors(key):
            # Synchronous dual-write *before* the ack: an acked in-range
            # put is on the destination too, whatever happens next.
            yield from hook.mirror(key, value, seq)
        return Reply(("ok", seq), 32)

    def _local_put(self, key: bytes, value: bytes):
        """Process: the put body (admission, WAL commit); returns the seq."""
        self._check_record(key, value)
        yield self.host.execute(self.config.op_cpu_us + self.config.cache_cpu_us)
        # Admission control: a put that may insert must have a block
        # available *now* — once the record is in the WAL and acked, the
        # applier can no longer refuse it.  Keys whose block is cached are
        # known updates; everything else conservatively reserves.
        reserved = self.cache.block_addr_of(key) is None
        if reserved:
            if self._free_blocks - self._reserved_blocks <= 0:
                raise KvError("key-value store is full")
            self._reserved_blocks += 1
        seq = self.next_seq
        self.next_seq += 1
        record = WalRecord(seq, OP_PUT, bytes(key), bytes(value), self.repmem.term)
        if reserved:
            self._ready_reservations[seq] = True
        # Cache before any yield so concurrent puts publish in seq order.
        self.cache.put(record.key, record.value, pending=True)
        self.stats["puts"] += 1
        try:
            yield from self._commit_record(record)
        except Exception:
            self.cache.applied(record.key, None)
            if self._ready_reservations.pop(seq, False):
                self._reserved_blocks -= 1
            raise
        return seq

    def handle_get(self, key: bytes):
        """Process: §4.2 get — cache first, chain walk on a miss."""
        hook = self.migration
        if hook is not None and hook.forwards(key):
            reply = yield from hook.forward("get", key)
            return reply
        yield self.host.execute(self.config.op_cpu_us + self.config.cache_cpu_us)
        self.stats["gets"] += 1
        hit, value = self.cache.get(key)
        if hit:
            self.stats["cache_hits"] += 1
            if value is None:
                return Reply(("missing", None), 16)
            return Reply(("ok", value), 16 + len(value))
        self.stats["cache_misses"] += 1
        bucket = self.layout.bucket_of(key)
        token = yield from self._bucket_locks.acquire([bucket], LockMode.READ)
        try:
            found = yield from self._walk_chain(bucket, key)
        finally:
            self._bucket_locks.release(token)
        if found is None:
            return Reply(("missing", None), 16)
        addr, image, _prev = found
        yield self.host.execute(self.config.cache_cpu_us)
        self.cache.fill(key, image.value, addr)
        return Reply(("ok", image.value), 16 + len(image.value))

    def handle_delete(self, key: bytes):
        """Process: delete — a tombstone record through the same WAL."""
        hook = self.migration
        if hook is not None and hook.forwards(key):
            reply = yield from hook.forward("delete", key)
            return reply
        seq = yield from self._local_delete(key)
        if hook is not None and hook.mirrors(key):
            yield from hook.mirror(key, None, seq)
        return Reply(("ok", seq), 32)

    def _local_delete(self, key: bytes):
        """Process: the delete body (tombstone WAL commit); returns the seq."""
        self._check_record(key, b"")
        yield self.host.execute(self.config.op_cpu_us + self.config.cache_cpu_us)
        seq = self.next_seq
        self.next_seq += 1
        record = WalRecord(seq, OP_DELETE, bytes(key), b"", self.repmem.term)
        self.cache.mark_deleted(record.key, pending=True)
        self.stats["deletes"] += 1
        try:
            yield from self._commit_record(record)
        except Exception:
            self.cache.applied(record.key, None)
            raise
        return seq

    # ------------------------------------------------------------------
    # Live-migration RPCs (repro.control)
    # ------------------------------------------------------------------

    def handle_migrate_put(self, payload: Tuple[bytes, Optional[bytes], int]):
        """Process: fenced import on the migration *destination*.

        Applies a mirrored write (``src_seq`` = its source WAL sequence)
        or a copy-pass record (``src_seq`` = 0, ``value`` = None means a
        tombstone) only when it is newer than anything already imported
        for the key, so copy-vs-mirror races resolve to the source's
        latest acked value regardless of RPC arrival order.
        """
        key, value, src_seq = payload
        key = bytes(key)
        recorded = self._import_seqs.get(key, -1)
        if src_seq <= recorded:
            self.stats["migrate_stale"] += 1
            return Reply(("ok", 0), 32)
        self._import_seqs[key] = src_seq
        self.stats["migrate_imports"] += 1
        if value is None:
            seq = yield from self._local_delete(key)
        else:
            seq = yield from self._local_put(key, value)
        return Reply(("ok", seq), 32)

    def handle_migrate_scan(self, payload: Tuple[int, int, tuple]):
        """Process: copy-pass scan on the migration *source*.

        Returns every applied ``(key, value)`` in buckets ``[lo, hi)``
        whose hash falls in the moved arcs.  The scan first waits for
        the apply frontier to pass the WAL records committed before it
        started; anything committed after that point is covered by the
        already-installed dual-write mirror, so scan + mirror together
        observe every acked write.
        """
        from repro.shard.hashing import key_point, ranges_contain

        bucket_lo, bucket_hi, ranges = payload
        floor = self.next_seq - 1
        while self.applied_seq < floor:
            if not self.running:
                raise KvError("kv server stopped mid-scan")
            yield self.sim.timeout(500.0)
        out = []
        total = 0
        for bucket in range(bucket_lo, min(bucket_hi, self.config.index_buckets)):
            # Empty buckets (the vast majority at a 12.5% load factor)
            # cost nothing: the unlocked peek is safe because the chain
            # head is re-read under the lock before it is walked.
            if not int(self.index[bucket]):
                continue
            token = yield from self._bucket_locks.acquire([bucket], LockMode.READ)
            try:
                ptr = int(self.index[bucket])
                while ptr:
                    raw = yield from self.repmem.read(ptr, self.layout.block_bytes)
                    self.stats["chain_reads"] += 1
                    image = self.layout.decode_block(raw)
                    if image is None:
                        break  # torn block: WAL replay repairs; skip chain tail
                    if ranges_contain(ranges, key_point(image.key)):
                        out.append((image.key, image.value))
                        total += len(image.key) + len(image.value)
                    ptr = image.next_ptr
            finally:
                self._bucket_locks.release(token)
        return Reply(("ok", out), 16 + total)

    def _check_record(self, key: bytes, value: bytes) -> None:
        if not key or len(key) > self.config.key_bytes:
            raise KvError(f"key must be 1..{self.config.key_bytes} bytes")
        if len(value) > self.config.value_bytes:
            raise KvError(f"value exceeds {self.config.value_bytes} bytes")

    def _commit_record(self, record: WalRecord):
        # Flow control: the circular WAL bounds outstanding updates (§4.2).
        # The slack keeps a few slots clear of the apply frontier; it must
        # never consume the whole window on small test configurations.
        slack = max(1, min(_WAL_FLOW_SLACK, self.config.wal_entries // 4))
        while record.seq - self.applied_seq > self.config.wal_entries - slack:
            waiter = Event(self.sim)
            self._flow_waiters.append(waiter)
            yield waiter
        image = self.layout.encode_wal_record(record)
        if self.config.coalesce_appends:
            if obs_state.TRACER is not None:
                # The fan-out milestones land in the flusher's trace; mark
                # where this record joined the coalescing queue instead.
                obs_state.TRACER.instant(
                    "kv.append_queued", self.sim.now, seq=record.seq
                )
            done = Event(self.sim)
            self._pending_appends.append((record, image, done))
            if not self._append_flusher_busy:
                self._append_flusher_busy = True
                self.host.spawn(self._append_flusher(), name="kv-append-flusher")
            yield done  # raises here if the extent write failed
            return
        yield from self.repmem.direct_write(self.layout.wal_slot_addr(record.seq), image)
        self._mark_committed([record])

    def _mark_committed(self, records) -> None:
        for record in records:
            self._ready[record.seq] = record
        kicks, self._apply_kicks = self._apply_kicks, []
        for kick in kicks:
            kick.try_trigger(None)

    def _append_flusher(self):
        """Process: drain pending appends as contiguous-slot extent writes.

        Concurrent puts enqueue encoded records; each flush takes up to
        ``coalesce_max`` of them, groups runs of adjacent WAL slots
        (splitting where the circular log wraps), and commits each run
        with **one** replicated write — every slot but the run's last is
        zero-padded to ``wal_slot_bytes`` so images land on their slot
        boundaries.  Per-record completion events keep the unbatched
        error semantics: a failed extent write fails exactly the records
        in that extent.
        """
        slot_bytes = self.layout.wal_slot_bytes
        wal_entries = self.config.wal_entries
        try:
            while self._pending_appends:
                batch = self._pending_appends[: self.config.coalesce_max]
                del self._pending_appends[: len(batch)]
                extents = [[batch[0]]]
                for item in batch[1:]:
                    prev_seq = extents[-1][-1][0].seq
                    if item[0].seq == prev_seq + 1 and (item[0].seq - 1) % wal_entries:
                        extents[-1].append(item)
                    else:
                        extents.append([item])
                for extent in extents:
                    addr = self.layout.wal_slot_addr(extent[0][0].seq)
                    image = b"".join(
                        img.ljust(slot_bytes, b"\0") for _, img, _ in extent[:-1]
                    ) + extent[-1][1]
                    self.stats["coalesced_appends"] += len(extent) - 1
                    try:
                        yield from self.repmem.direct_write(addr, image)
                    except Exception as exc:
                        for _, _, done in extent:
                            done.try_fail(exc)
                        continue
                    self._mark_committed([rec for rec, _, _ in extent])
                    for _, _, done in extent:
                        done.try_trigger(None)
        finally:
            self._append_flusher_busy = False

    # ------------------------------------------------------------------
    # Background apply (§4.2)
    # ------------------------------------------------------------------

    def _applier(self):
        """One of ``apply_workers`` concurrent appliers.

        Records are dispatched strictly in sequence order; the per-bucket
        FIFO write locks then serialize conflicting keys while letting
        independent keys apply in parallel (§4.2).
        """
        while self.running:
            record = self._ready.pop(self._next_dispatch, None)
            if record is None:
                kick = Event(self.sim)
                self._apply_kicks.append(kick)
                yield kick
                continue
            self._next_dispatch += 1
            try:
                yield from self._apply_record(record)
            except KvError:
                # Admission control should make this unreachable; if it
                # ever happens, dropping the record is the only option
                # left (the client was already acked).
                self.stats["apply_drops"] += 1
            except Exception:
                if not self.running:
                    return  # deposed mid-apply; successor replays the WAL
                raise
            finally:
                if self._ready_reservations.pop(record.seq, False):
                    self._reserved_blocks = max(0, self._reserved_blocks - 1)
            block_addr = self.cache.block_addr_of(record.key)
            self.cache.applied(record.key, block_addr)
            self.stats["applies"] += 1
            if self.persistence is not None:
                yield from self.persistence.offer(record)
            self._note_applied(record.seq)

    def _note_applied(self, seq: int) -> None:
        self._done_seqs.add(seq)
        advanced = False
        while self.applied_seq + 1 in self._done_seqs:
            self.applied_seq += 1
            self._done_seqs.remove(self.applied_seq)
            advanced = True
        if not advanced:
            return
        if self.applied_seq - self._last_watermark >= self.config.watermark_interval:
            self._last_watermark = self.applied_seq
            self.host.spawn(self._persist_watermark(), name="kv-watermark")
        if self._flow_waiters:
            waiters, self._flow_waiters = self._flow_waiters, []
            for waiter in waiters:
                waiter.try_trigger(None)

    def _persist_watermark(self):
        self._last_watermark = self.applied_seq
        try:
            yield from self.repmem.direct_write(
                WATERMARK_OFFSET, self.applied_seq.to_bytes(8, "little")
            )
        except (Deposed, GroupUnavailable):
            pass  # advisory write: recovery just replays a longer suffix

    def _apply_record(self, record: WalRecord):
        bucket = self.layout.bucket_of(record.key)
        token = yield from self._bucket_locks.acquire([bucket], LockMode.WRITE)
        try:
            yield self.host.execute(self.config.apply_cpu_us)
            if record.op == OP_PUT:
                yield from self._apply_put(bucket, record)
            else:
                yield from self._apply_delete(bucket, record)
        finally:
            self._bucket_locks.release(token)

    def _apply_put(self, bucket: int, record: WalRecord):
        found = yield from self._walk_chain(bucket, record.key)
        if found is not None:
            addr, image, _prev = found
            updated = BlockImage(image.next_ptr, record.key, record.value)
            yield from self._write_block(addr, updated)
            self.cache.fill(record.key, record.value, addr)
            return
        block_number = self._allocate_block()
        addr = self.layout.block_addr(block_number)
        head = int(self.index[bucket])
        yield from self._write_block(addr, BlockImage(head, record.key, record.value))
        yield from self._write_bitmap_bit(block_number)
        yield from self._write_bucket_head(bucket, addr)
        self.cache.fill(record.key, record.value, addr)

    def _apply_delete(self, bucket: int, record: WalRecord):
        found = yield from self._walk_chain(bucket, record.key, need_prev=True)
        if found is None:
            return  # delete of a non-existent key: nothing to do
        addr, image, prev = found
        if prev is None:
            yield from self._write_bucket_head(bucket, image.next_ptr)
        else:
            prev_addr, prev_image = prev
            relinked = BlockImage(image.next_ptr, prev_image.key, prev_image.value)
            yield from self._write_block(prev_addr, relinked)
        self._free_block(self.layout.block_number(addr))
        yield from self._write_bitmap_bit(self.layout.block_number(addr))

    # ------------------------------------------------------------------
    # Chain / structure access
    # ------------------------------------------------------------------

    def _walk_chain(self, bucket: int, key: bytes, need_prev: bool = False):
        """Process: find *key* in its bucket chain.

        Returns ``(addr, image, prev)`` where *prev* is ``None`` for the
        chain head or ``(prev_addr, prev_image)`` otherwise; ``None`` if
        the key is absent.  Uses the cached block address as a shortcut
        when available — unless the caller needs the predecessor (chain
        unlinking), which only a full walk can produce.
        """
        shortcut = None if need_prev else self.cache.block_addr_of(key)
        if shortcut:
            raw = yield from self.repmem.read(shortcut, self.layout.block_bytes)
            self.stats["chain_reads"] += 1
            image = self.layout.decode_block(raw)
            if image is not None and image.key == key:
                return shortcut, image, None  # prev unknown (not needed)
        prev = None
        ptr = int(self.index[bucket])
        while ptr:
            raw = yield from self.repmem.read(ptr, self.layout.block_bytes)
            self.stats["chain_reads"] += 1
            image = self.layout.decode_block(raw)
            if image is None:
                return None  # torn block: treat as absent (WAL replay fixes)
            if image.key == key:
                return ptr, image, prev
            prev = (ptr, image)
            ptr = image.next_ptr
        return None

    def _write_block(self, addr: int, image: BlockImage):
        data = self.layout.encode_block(image)
        if self.repmem.config.erasure_coding:
            yield from self.repmem.write(addr, data)  # logged: EC-safe
        else:
            yield from self.repmem.direct_write(addr, data)

    def _write_bucket_head(self, bucket: int, ptr: int):
        self.index[bucket] = ptr
        addr = self.layout.bucket_addr(bucket)
        if self.repmem.config.erasure_coding:
            # Write the whole containing EC block from the local cache,
            # under a structure-block mutex so the snapshot is current.
            block = self.repmem.amap.block_index(addr)
            token = yield from self._structure_locks.acquire([block], LockMode.WRITE)
            try:
                start, end = self.repmem.amap.block_bounds(block)
                data = self._index_slice(start, end)
                yield from self.repmem.write(start, data)
            finally:
                self._structure_locks.release(token)
        else:
            yield from self.repmem.direct_write(addr, int(ptr).to_bytes(8, "little"))

    def _write_bitmap_bit(self, block_number: int):
        byte_index = block_number // 8
        addr = self.layout.bitmap_offset + byte_index
        if self.repmem.config.erasure_coding:
            block = self.repmem.amap.block_index(addr)
            token = yield from self._structure_locks.acquire([block], LockMode.WRITE)
            try:
                start, end = self.repmem.amap.block_bounds(block)
                data = self._bitmap_slice(start, end)
                yield from self.repmem.write(start, data)
            finally:
                self._structure_locks.release(token)
        else:
            # Serialize per word: concurrent set/clear of bits sharing a
            # word must not land a stale snapshot.
            aligned = addr - (addr % 8)
            token = yield from self._structure_locks.acquire([aligned], LockMode.WRITE)
            try:
                begin = aligned - self.layout.bitmap_offset
                word = bytes(self.bitmap[begin : begin + 8]).ljust(8, b"\x00")
                yield from self.repmem.direct_write(aligned, word)
            finally:
                self._structure_locks.release(token)

    def _index_slice(self, start: int, end: int) -> bytes:
        """The index table's bytes for logical range [start, end), padded."""
        table = self.index.tobytes()
        lo = start - self.layout.index_offset
        hi = end - self.layout.index_offset
        chunk = table[max(lo, 0) : min(hi, len(table))]
        return chunk + bytes((end - start) - len(chunk))

    def _bitmap_slice(self, start: int, end: int) -> bytes:
        lo = start - self.layout.bitmap_offset
        hi = end - self.layout.bitmap_offset
        chunk = bytes(self.bitmap[max(lo, 0) : min(hi, len(self.bitmap))])
        return chunk + bytes((end - start) - len(chunk))

    # ------------------------------------------------------------------
    # Bitmap allocation
    # ------------------------------------------------------------------

    def _allocate_block(self) -> int:
        if self._free_blocks <= 0:
            raise KvError("key-value store is full")
        total = self.config.max_keys
        for step in range(total):
            candidate = (self._alloc_hint + step) % total
            byte_index, bit = divmod(candidate, 8)
            if not self.bitmap[byte_index] & (1 << bit):
                self.bitmap[byte_index] |= 1 << bit
                self._free_blocks -= 1
                self._alloc_hint = candidate + 1
                return candidate
        raise KvError("bitmap inconsistent: no free block found")

    def _free_block(self, block_number: int) -> None:
        byte_index, bit = divmod(block_number, 8)
        if self.bitmap[byte_index] & (1 << bit):
            self.bitmap[byte_index] &= ~(1 << bit) & 0xFF
            self._free_blocks += 1


def kv_app_factory(config: KvConfig, persistence_factory=None):
    """Build the ``app_factory`` hook wiring a KvServer to elected nodes.

    Every CPU node gets one persistent RPC endpoint named ``kv``; the
    server registers its handlers there while it leads and unregisters on
    depose, so clients simply retry another node when theirs stops
    answering.  *persistence_factory(cpu_node)*, if given, supplies a
    :class:`~repro.persist.sink.PersistenceSink` for the §3.5 RocksDB
    strategy.
    """

    def factory(cpu_node: CpuNode, repmem: ReplicatedMemory):
        endpoint = cpu_node.host.services.get("rpc:kv")
        if endpoint is None:
            endpoint = RpcEndpoint(cpu_node.host, cpu_node.fabric, name="kv")
        persistence = (
            persistence_factory(cpu_node) if persistence_factory is not None else None
        )
        return KvServer(cpu_node, repmem, config, endpoint, persistence=persistence)

    return factory
