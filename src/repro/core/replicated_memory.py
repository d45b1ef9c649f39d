"""The coordinator-side replicated memory layer (§3).

This is the component a freshly elected coordinator instantiates.  It
gives applications a flat, logically addressed memory that is replicated
on ``2Fm + 1`` passive memory nodes:

* **Logged writes** (:meth:`ReplicatedMemory.write` /
  :meth:`multi_write`) — append one WAL entry per touched block to every
  active node with a single one-sided RDMA write each; the write commits
  (and the caller resumes) when ``Fm + 1`` *live* nodes have acked;
  background workers then apply the entries to the replicated memory
  block, in log order, pipelined per node.
* **Reads** (:meth:`read`) — served with one one-sided read (or, with
  erasure coding, ``Fm + 1`` chunk reads) under a local read lock; no
  quorum is needed because the coordinator holds the lease (§3.3.1).
* **Direct windows** (:meth:`direct_write` / :meth:`direct_read`) —
  unlogged raw access for applications that manage their own recovery,
  like the KV store's circular log (§3.3.2).
* **Erasure coding** (§5.1) — blocks in the encoded zone are split into
  ``Fm + 1`` data + ``Fm`` parity chunks at request time (the WAL itself
  stays unencoded, which is what preserves fault tolerance); partial
  writes to encoded blocks are promoted to full-block writes with a
  locked read-modify-write.

Lock discipline follows §3.3.2: write locks are released only after the
replicated-memory update has been *submitted* to every active node, so a
subsequent read — which is ordered after those writes on each queue
pair — can never observe stale data.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.addressing import AddressMap
from repro.core.config import SiftConfig
from repro.core.errors import GroupUnavailable, InvalidAccess, Deposed
from repro.core.locks import BlockLockTable, LockMode
from repro.core.membership import MEMBERSHIP_ADDR, Membership
from repro.ec.reed_solomon import CauchyRSCode
from repro.net.host import Host
from repro.obs import state as obs_state
from repro.rdma.errors import RdmaConnectionRevoked, RdmaError
from repro.rdma.nic import Rnic
from repro.rdma.qp import QueuePair
from repro.sim.engine import Event, all_of, quorum
from repro.storage.memory_node import (
    META_REGION,
    MemoryNode,
    REPMEM_REGION,
    STATUS_INITIALISED,
    STATUS_OFFSET,
)
from repro.storage.wal import HEADER_BYTES, WalCodec, WalEntry

__all__ = ["ReplicatedMemory", "NodeState"]


class NodeState:
    """Lifecycle of a memory node from this coordinator's perspective."""

    DEAD = "dead"
    RECOVERING = "recovering"
    LIVE = "live"


class _Pending:
    """A logged write making its way through commit and apply."""

    __slots__ = (
        "entry",
        "commit_event",
        "submit_event",
        "chunks",
        "committed",
        "submitted_to",
        "targets",
    )

    def __init__(
        self, entry: WalEntry, commit_event: Event, submit_event: Event, targets: Set[int]
    ):
        self.entry = entry
        self.commit_event = commit_event
        self.submit_event = submit_event
        self.chunks: Optional[List[bytes]] = None  # EC shards, encoded at request time
        self.committed = False
        self.submitted_to: Set[int] = set()
        # The nodes whose apply must be *submitted* before the write lock
        # can be released (§3.3.2).  Frozen at append time; node deaths
        # shrink it so a crash never strands the lock.
        self.targets = targets

    def note_submitted(self, n: int) -> None:
        self.submitted_to.add(n)
        if self.submitted_to >= self.targets:
            self.submit_event.try_trigger(None)

    def drop_target(self, n: int) -> None:
        self.targets.discard(n)
        if self.submitted_to >= self.targets:
            self.submit_event.try_trigger(None)


class ReplicatedMemory:
    """Replicated memory client living on the elected coordinator."""

    def __init__(
        self,
        host: Host,
        nic: Rnic,
        config: SiftConfig,
        memory_nodes: List[MemoryNode],
    ):
        config.validate()
        if len(memory_nodes) != config.memory_node_count:
            raise ValueError(
                f"expected {config.memory_node_count} memory nodes, "
                f"got {len(memory_nodes)}"
            )
        self.host = host
        self.nic = nic
        self.config = config
        self.memory_nodes = memory_nodes
        self.sim = host.sim
        self.costs = config.costs
        node_config = config.memory_node_config()
        self.wal_layout = node_config.wal_layout
        self.codec = WalCodec(self.wal_layout)
        self.amap = AddressMap(config, node_config.data_offset)
        self.locks = BlockLockTable(self.sim)
        self.rs = (
            CauchyRSCode(config.data_shards, config.parity_shards)
            if config.erasure_coding
            else None
        )

        self.qps: Dict[int, QueuePair] = {}
        self.states: Dict[int, str] = {
            n: NodeState.DEAD for n in range(len(memory_nodes))
        }
        self.membership = Membership(0, frozenset(range(len(memory_nodes))))

        self.term = 0  # set by the electing CPU node before activation
        self.next_index = 1
        self._log: Dict[int, _Pending] = {}
        self._applied: Dict[int, int] = {}
        self._next_apply: Dict[int, int] = {}
        self._inflight: Dict[int, int] = {}
        self._apply_kicks: Dict[int, Event] = {}
        self._wal_waiters: List[Event] = []
        self._membership_busy = False
        self._membership_waiters: List[Event] = []
        self._read_rr = 0
        # Remote-read popularity per recovery chunk, feeding the §6.5
        # popularity-ordered recovery option (config.recovery_order).
        self.read_popularity: Dict[int, int] = {}
        self.running = False
        self.deposed = False
        self.on_deposed: Optional[Callable[[], None]] = None
        self.on_node_dead: Optional[Callable[[int], None]] = None

        # Counters consumed by the benchmark harness.
        self.stats = {
            "writes_committed": 0,
            "entries_logged": 0,
            "remote_reads": 0,
            "ec_decodes": 0,
            "applies_posted": 0,
            "rmw_promotions": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def connect(self, members: Optional[Set[int]] = None):
        """Process: establish exclusive QPs to the replicated regions.

        Connecting to the exclusive region revokes the previous
        coordinator's access (at-most-one-connection, §3.2).  Raises
        :class:`GroupUnavailable` unless a quorum of *members* connects.
        """
        targets = sorted(members) if members is not None else list(self.states)
        attempts = []
        for n in targets:
            node = self.memory_nodes[n]
            qp = QueuePair(self.nic, node.listener, name=f"repmem-{n}")
            attempts.append(
                (n, qp, self.host.fork(qp.connect([REPMEM_REGION, META_REGION])))
            )
        connected = 0
        for n, qp, proc in attempts:
            try:
                yield proc
            except Exception:
                continue  # unreachable node: proceed with the others
            self.qps[n] = qp
            connected += 1
        if connected < self.config.quorum:
            raise GroupUnavailable(
                f"connected to {connected} memory nodes, need {self.config.quorum}"
            )
        return connected

    def activate(self, live: Set[int]) -> None:
        """Mark *live* nodes active and start the background machinery.

        Called by recovery once the log has been replayed and the
        membership view is known.
        """
        self.running = True
        for n in live:
            if n not in self.qps:
                continue
            self.states[n] = NodeState.LIVE
            self._applied[n] = self.next_index - 1
            self._next_apply[n] = self.next_index
            self._inflight[n] = 0
            self.host.spawn(self._apply_worker(n), name=f"apply-{n}")

    def shutdown(self) -> None:
        """Stop background work and drop all connections (depose path)."""
        self.running = False
        for kick in list(self._apply_kicks.values()):
            kick.try_trigger(None)
        self._apply_kicks.clear()
        for waiter in self._wal_waiters:
            waiter.try_fail(Deposed("replicated memory shut down"))
        self._wal_waiters.clear()
        for qp in self.qps.values():
            qp.close()
        self.qps.clear()

    # ------------------------------------------------------------------
    # Public data path
    # ------------------------------------------------------------------

    def write(self, addr: int, data: bytes):
        """Process: logged write, returns once committed on a quorum."""
        yield from self._logged_write([(addr, bytes(data))])

    def multi_write(self, writes: List[Tuple[int, bytes]]):
        """Process: commit several writes atomically w.r.t. other writers.

        All blocks are locked up front, so no conflicting write can
        interleave (§3.3.2); the caller resumes when every piece has
        committed.
        """
        yield from self._logged_write([(a, bytes(d)) for a, d in writes])

    def read(self, addr: int, length: int):
        """Process: read under a block read lock; returns the bytes."""
        yield self.host.execute(self.costs.request_us)
        blocks = self.amap.blocks_of(addr, length)
        token = yield from self.locks.acquire(blocks, LockMode.READ)
        try:
            data = yield from self._read_unlocked(addr, length)
        finally:
            self.locks.release(token)
        return data

    def _fan_out_write(self, offset: int, data: bytes) -> List[Tuple[int, Event]]:
        """Post one WRITE of *data* at *offset* to every active node.

        With ``doorbell_batching`` the per-node writes are staged via
        :meth:`QueuePair.prepare_write` and flushed under a single
        doorbell — one NIC ``verb_overhead_us`` for the whole fan-out —
        otherwise each write posts individually.  Returns ``(node,
        completion event)`` pairs in node order either way; completion
        and error semantics per node are identical across both paths.
        """
        nodes = self._active_nodes()
        if self.config.doorbell_batching:
            posts = [
                self.qps[n].prepare_write(REPMEM_REGION, offset, data)
                for n in nodes
            ]
            self.nic.post_many(posts)
            return [(n, post.done) for n, post in zip(nodes, posts)]
        return [(n, self.qps[n].write(REPMEM_REGION, offset, data)) for n in nodes]

    def direct_write(self, addr: int, data: bytes):
        """Process: unlogged raw write committed on a quorum of live nodes.

        Only valid in the direct window (or anywhere without erasure
        coding); the caller owns conflict and recovery management.
        """
        data = bytes(data)
        self._check_usable()
        self.amap.check_range(addr, len(data))
        if self.config.erasure_coding and not self.amap.in_direct_window(addr, len(data)):
            raise InvalidAccess(
                "direct writes must stay inside the direct (unencoded) window"
            )
        yield self.host.execute(self.costs.rdma_post_us)
        offset = self.amap.raw_extent(addr)
        if obs_state.TRACER is not None:
            # Milestone: replication fan-out begins (closes "wal_write"
            # in critical-path analysis).
            obs_state.TRACER.instant(
                "repmem.fanout", self.sim.now, addr=addr, bytes=len(data)
            )
        needed = self.config.quorum
        acks = []
        for n, event in self._fan_out_write(offset, data):
            event.add_callback(partial(self._note_verb, n))
            if self.states[n] == NodeState.LIVE:
                acks.append(event)
        if len(acks) < needed:
            raise GroupUnavailable("not enough live memory nodes for quorum")
        yield quorum(self.sim, acks, needed)
        if obs_state.TRACER is not None:
            # Milestone: a quorum of replicas acked (closes "quorum").
            obs_state.TRACER.instant("repmem.quorum", self.sim.now, acks=needed)

    def direct_read(self, addr: int, length: int):
        """Process: unlogged raw read from one live node."""
        self._check_usable()
        self.amap.check_range(addr, length)
        if self.config.erasure_coding and not self.amap.in_direct_window(addr, length):
            raise InvalidAccess(
                "direct reads must stay inside the direct (unencoded) window"
            )
        data = yield from self._raw_read(addr, length)
        return data

    # ------------------------------------------------------------------
    # Logged write machinery
    # ------------------------------------------------------------------

    def _logged_write(self, writes: List[Tuple[int, bytes]]):
        self._check_usable()
        yield self.host.execute(self.costs.request_us)
        pieces: List[Tuple[int, bytes]] = []
        blocks: Set[int] = set()
        for addr, data in writes:
            for piece_addr, piece in self.amap.split_by_block(addr, data):
                pieces.append((piece_addr, piece))
                blocks.add(self.amap.block_index(piece_addr))
        yield self.host.execute(self.costs.lock_us * len(blocks))
        token = yield from self.locks.acquire(sorted(blocks), LockMode.WRITE)
        try:
            yield from self._wait_wal_space(len(pieces))
            prepared = []
            for piece_addr, piece in pieces:
                prepared.append((yield from self._prepare_piece(piece_addr, piece)))
            yield self.host.execute(self.costs.log_append_us * len(prepared))
            pendings = [self._append_entry(addr, data, chunks) for addr, data, chunks in prepared]
            yield all_of(self.sim, [p.commit_event for p in pendings])
            self.stats["writes_committed"] += 1
        except BaseException:
            self.locks.release(token)
            raise
        # Reply to the caller now; release locks when applies are submitted.
        submit = all_of(self.sim, [p.submit_event for p in pendings])
        self.host.spawn(self._release_after(submit, token), name="lock-release")

    def _release_after(self, submit: Event, token):
        try:
            yield submit
        except Exception:
            pass  # shutdown/depose: still release the local lock
        self.locks.release(token)

    def _prepare_piece(self, addr: int, data: bytes):
        """Handle EC promotion/encoding for one per-block piece.

        Returns ``(addr, data, chunks)`` where *chunks* is the shard list
        for encoded-zone pieces (None otherwise).
        """
        if not self.amap.is_encoded(addr, len(data)):
            return addr, data, None
        block = self.amap.block_index(addr)
        start, end = self.amap.block_bounds(block)
        if addr != start or len(data) != end - start:
            # Partial write to an encoded block: promote via locked RMW.
            self.stats["rmw_promotions"] += 1
            current = yield from self._read_encoded_block(block)
            patched = bytearray(current)
            patched[addr - start : addr - start + len(data)] = data
            addr, data = start, bytes(patched)
        kb = len(data) / 1024.0
        yield self.host.execute(self.costs.ec_encode_us_per_kb * kb)
        chunks = self.rs.encode(data)
        return addr, data, chunks

    def _append_entry(
        self, addr: int, data: bytes, chunks: Optional[List[bytes]]
    ) -> _Pending:
        index = self.next_index
        self.next_index += 1
        entry = WalEntry(index, addr, data, self.term)
        pending = _Pending(
            entry, Event(self.sim), Event(self.sim), self._active_set()
        )
        pending.chunks = chunks
        self._log[index] = pending
        self.stats["entries_logged"] += 1
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter("repmem.entries_logged").inc()
        if obs_state.TRACER is not None:
            span = obs_state.TRACER.span(
                "repmem.append", self.sim.now, index=index, addr=addr, bytes=len(data)
            )

            def _finish(event: Event, _span=span) -> None:
                _span.annotate(committed=event.ok)
                _span.finish(self.sim.now)

            pending.commit_event.add_callback(_finish)

        image = self.codec.encode(entry)[: HEADER_BYTES + len(data)]
        offset = self.wal_layout.slot_offset(index)
        live_acks = []
        for n, event in self._fan_out_write(offset, image):
            event.add_callback(partial(self._note_verb, n))
            if self.states[n] == NodeState.LIVE:
                live_acks.append(event)
        if len(live_acks) < self.config.quorum:
            pending.commit_event.try_fail(
                GroupUnavailable("not enough live memory nodes for quorum")
            )
            return pending
        commit = quorum(self.sim, live_acks, self.config.quorum)
        commit.add_callback(lambda ev: self._on_commit(pending, ev))
        return pending

    def _on_commit(self, pending: _Pending, event: Event) -> None:
        if event.failed:
            pending.commit_event.try_fail(
                event.exception or GroupUnavailable("commit quorum lost")
            )
            return
        pending.committed = True
        pending.commit_event.try_trigger(None)
        self._kick_appliers()

    # ------------------------------------------------------------------
    # Background apply pipeline
    # ------------------------------------------------------------------

    def _apply_worker(self, n: int):
        while self.running and self._node_active(n):
            progressed = False
            while (
                self._node_active(n)
                and self._inflight[n] < self.config.max_apply_inflight
            ):
                index = self._next_apply[n]
                pending = self._log.get(index)
                if pending is None or not pending.committed:
                    break
                yield self.host.execute(self.costs.apply_entry_us)
                if not self.running or not self._node_active(n):
                    return
                self._post_apply(n, index, pending)
                self._next_apply[n] = index + 1
                progressed = True
            if not self.running or not self._node_active(n):
                return
            if not progressed:
                kick = Event(self.sim)
                self._apply_kicks[n] = kick
                yield kick

    def _post_apply(self, n: int, index: int, pending: _Pending) -> None:
        entry = pending.entry
        if pending.chunks is not None:
            offset = self.amap.chunk_extent(self.amap.block_index(entry.address))
            payload = pending.chunks[n]
        else:
            offset = self.amap.raw_extent(entry.address)
            payload = entry.data
        self._inflight[n] += 1
        self.stats["applies_posted"] += 1
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter("repmem.applies_posted").inc()
        event = self.qps[n].write(REPMEM_REGION, offset, payload)
        event.add_callback(lambda ev: self._on_apply_done(n, index, pending, ev))
        pending.note_submitted(n)

    def _on_apply_done(self, n: int, index: int, pending: _Pending, event: Event) -> None:
        if n in self._inflight:
            self._inflight[n] = max(0, self._inflight[n] - 1)
        if event.failed:
            self._note_verb(n, event)
            return
        # RC ordering: completions arrive in post order, so this is contiguous.
        if self._applied.get(n, -1) < index:
            self._applied[n] = index
        self._advance_floor()
        kick = self._apply_kicks.pop(n, None)
        if kick is not None:
            kick.try_trigger(None)

    def _kick_appliers(self) -> None:
        for n, kick in list(self._apply_kicks.items()):
            del self._apply_kicks[n]
            kick.try_trigger(None)

    # ------------------------------------------------------------------
    # WAL window / flow control
    # ------------------------------------------------------------------

    def applied_floor(self) -> int:
        """Highest index applied on every active node (WAL reuse horizon)."""
        active = self._active_nodes()
        if not active:
            return self.next_index - 1
        return min(self._applied.get(n, 0) for n in active)

    def _wait_wal_space(self, needed: int):
        while self.next_index + needed - 1 - self.applied_floor() > self.config.wal_entries:
            self._check_usable()
            waiter = Event(self.sim)
            self._wal_waiters.append(waiter)
            yield waiter

    def _advance_floor(self) -> None:
        floor = self.applied_floor()
        # Garbage-collect pendings that can never be needed again.
        for index in [i for i in self._log if i <= floor]:
            del self._log[index]
        if self._wal_waiters:
            waiters, self._wal_waiters = self._wal_waiters, []
            for waiter in waiters:
                waiter.try_trigger(None)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _read_unlocked(self, addr: int, length: int):
        if self.amap.is_encoded(addr, length):
            data = yield from self._read_encoded_range(addr, length)
        else:
            data = yield from self._raw_read(addr, length)
        return data

    def _note_read_popularity(self, addr: int) -> None:
        chunk = addr // self.config.recovery_chunk_bytes
        self.read_popularity[chunk] = self.read_popularity.get(chunk, 0) + 1

    def _raw_read(self, addr: int, length: int):
        self._note_read_popularity(addr)
        yield self.host.execute(self.costs.rdma_post_us)
        offset = self.amap.raw_extent(addr)
        last_error: Optional[BaseException] = None
        for n in self._live_nodes_rotated():
            event = self.qps[n].read(REPMEM_REGION, offset, length)
            try:
                data = yield event
            except RdmaError as exc:
                self._note_verb_failure(n, exc)
                last_error = exc
                continue
            self.stats["remote_reads"] += 1
            return data
        raise GroupUnavailable(f"no live memory node could serve a read: {last_error}")

    def _read_encoded_range(self, addr: int, length: int):
        first = self.amap.block_index(addr)
        last = self.amap.block_index(addr + length - 1) if length else first
        out = bytearray()
        for block in range(first, last + 1):
            start, end = self.amap.block_bounds(block)
            data = yield from self._read_encoded_block(block)
            lo = max(addr, start) - start
            hi = min(addr + length, end) - start
            out += data[lo:hi]
        return bytes(out)

    def _read_encoded_block(self, block: int):
        """Read Fm+1 chunks (data shards preferred, §5.1) and rebuild.

        A chunk read that fails (node died mid-read) retries with the
        refreshed live set, up to one attempt per memory node.
        """
        config = self.config
        offset = self.amap.chunk_extent(block)
        self._note_read_popularity(block * config.block_bytes)
        for _attempt in range(len(self.memory_nodes)):
            live = [
                n
                for n, s in self.states.items()
                if s == NodeState.LIVE and n in self.qps
            ]
            data_nodes = [n for n in live if n < config.data_shards]
            parity_nodes = [n for n in live if n >= config.data_shards]
            chosen = (data_nodes + parity_nodes)[: config.data_shards]
            if len(chosen) < config.data_shards:
                raise GroupUnavailable(
                    f"need {config.data_shards} chunks, only {len(chosen)} live nodes"
                )
            yield self.host.execute(self.costs.rdma_post_us * len(chosen))
            events = [
                self.qps[n].read(REPMEM_REGION, offset, config.chunk_bytes)
                for n in chosen
            ]
            for n, event in zip(chosen, events):
                event.add_callback(partial(self._note_verb, n))
            try:
                results = yield all_of(self.sim, events)
            except RdmaError:
                continue  # _note_verb already demoted the culprit
            break
        else:
            raise GroupUnavailable("could not assemble a decodable chunk set")
        self.stats["remote_reads"] += len(chosen)
        start, end = self.amap.block_bounds(block)
        block_len = end - start
        if chosen == list(range(config.data_shards)):
            # All data shards: concatenation, no field arithmetic.
            return b"".join(results)[:block_len]
        kb = block_len / 1024.0
        yield self.host.execute(self.costs.ec_decode_us_per_kb * kb)
        self.stats["ec_decodes"] += 1
        chunks = {n: bytes(r) for n, r in zip(chosen, results)}
        return self.rs.decode(chunks, block_len)

    # ------------------------------------------------------------------
    # Node state management
    # ------------------------------------------------------------------

    def _active_nodes(self) -> List[int]:
        return [
            n
            for n, s in self.states.items()
            if s in (NodeState.LIVE, NodeState.RECOVERING) and n in self.qps
        ]

    def _active_set(self) -> Set[int]:
        return set(self._active_nodes())

    def _node_active(self, n: int) -> bool:
        return (
            self.running
            and n in self.qps
            and self.states.get(n) in (NodeState.LIVE, NodeState.RECOVERING)
        )

    def _live_nodes_rotated(self) -> List[int]:
        live = sorted(
            n for n, s in self.states.items() if s == NodeState.LIVE and n in self.qps
        )
        if not live:
            return []
        self._read_rr = (self._read_rr + 1) % len(live)
        return live[self._read_rr :] + live[: self._read_rr]

    def _note_verb(self, n: int, event: Event) -> None:
        if not event.ok:  # settled: this is its completion callback
            self._note_verb_failure(n, event.exception)

    def _note_verb_failure(self, n: int, exc: Optional[BaseException]) -> None:
        if isinstance(exc, RdmaConnectionRevoked):
            self._on_revoked()
            return
        self.mark_node_dead(n)

    def _on_revoked(self) -> None:
        """A newer coordinator owns the region: we have been deposed."""
        if self.deposed:
            return
        self.deposed = True
        if self.on_deposed is not None:
            self.on_deposed()

    def mark_node_dead(self, n: int) -> None:
        """Drop a memory node from the active set (§3.4.2 detection)."""
        if self.states.get(n) == NodeState.DEAD:
            return
        self.states[n] = NodeState.DEAD
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter("repmem.nodes_marked_dead").inc()
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant("repmem.node_dead", self.sim.now, node=n)
        qp = self.qps.pop(n, None)
        if qp is not None:
            qp.close()
        for pending in self._log.values():
            pending.drop_target(n)
        self._inflight.pop(n, None)
        kick = self._apply_kicks.pop(n, None)
        if kick is not None:
            kick.try_trigger(None)
        self._advance_floor()
        self._kick_appliers()
        if self.running and not self.deposed and n in self.membership.members:
            # Commit the removal immediately so a successor coordinator
            # never trusts this node's (possibly wiped) state.  See the
            # discussion in repro.core.recovery.
            self.host.spawn(self._remove_member(n), name=f"remove-member-{n}")
        if self.on_node_dead is not None:
            self.on_node_dead(n)

    def _remove_member(self, n: int):
        try:
            yield from self.commit_membership(
                lambda m: m.without_member(n) if n in m.members else m
            )
        except Exception:
            pass  # deposed or unavailable; the next coordinator re-derives

    def _check_usable(self) -> None:
        if self.deposed:
            raise Deposed("this coordinator has been replaced")
        live = [n for n, s in self.states.items() if s == NodeState.LIVE]
        if self.running and len(live) < self.config.quorum:
            raise GroupUnavailable(
                f"{len(live)} live memory nodes, need {self.config.quorum}"
            )

    # ------------------------------------------------------------------
    # Hooks used by recovery (see repro.core.recovery)
    # ------------------------------------------------------------------

    def begin_node_recovery(self, n: int, qp: QueuePair) -> int:
        """Register a reconnected node as RECOVERING; returns its start index.

        From this point the node receives WAL appends and applies (but
        does not count toward quorums) while the incremental region copy
        runs; see §3.4.2 and the ordering argument in the module docs.
        """
        self.qps[n] = qp
        self.states[n] = NodeState.RECOVERING
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant("repmem.recovery_begin", self.sim.now, node=n)
        start = self.next_index
        self._applied[n] = start - 1
        self._next_apply[n] = start
        self._inflight[n] = 0
        self.host.spawn(self._apply_worker(n), name=f"apply-{n}")
        return start

    def finish_node_recovery(self, n: int) -> None:
        """Promote a fully copied node to LIVE (membership commit follows)."""
        if self.states.get(n) == NodeState.RECOVERING:
            self.states[n] = NodeState.LIVE
            if obs_state.REGISTRY is not None:
                obs_state.REGISTRY.counter("repmem.nodes_recovered").inc()
            if obs_state.TRACER is not None:
                obs_state.TRACER.instant(
                    "repmem.recovery_finish", self.sim.now, node=n
                )

    def commit_membership(self, transform: Callable[[Membership], Membership]):
        """Process: atomically transform and log the membership view.

        Membership changes are serialized through an internal mutex so a
        concurrent node-removal and node-join cannot lose each other's
        update; each change is a Raft-style configuration entry committed
        through the ordinary logged-write path.  Returns the committed
        view.
        """
        while self._membership_busy:
            waiter = Event(self.sim)
            self._membership_waiters.append(waiter)
            yield waiter
        self._membership_busy = True
        try:
            updated = transform(self.membership)
            if updated.members != self.membership.members or updated.epoch != self.membership.epoch:
                yield from self.write(MEMBERSHIP_ADDR, updated.pack())
                self.membership = updated
        finally:
            self._membership_busy = False
            waiters, self._membership_waiters = self._membership_waiters, []
            for waiter in waiters:
                waiter.try_trigger(None)
        return self.membership

    def write_status(self, n: int, status: int = STATUS_INITIALISED):
        """Process: stamp node *n*'s status word (bootstrap / recovery done).

        A volatile node that crashes loses this word, which is how a later
        coordinator knows its zeroed region must not be trusted.
        """
        qp = self.qps[n]
        yield qp.write(
            META_REGION, STATUS_OFFSET, status.to_bytes(8, "little")
        )

    def read_status(self, n: int):
        """Process: fetch node *n*'s status word."""
        qp = self.qps[n]
        raw = yield qp.read(META_REGION, STATUS_OFFSET, 8)
        return int.from_bytes(raw, "little")
