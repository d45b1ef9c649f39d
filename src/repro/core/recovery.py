"""Fault recovery (§3.4).

Two procedures, both executed by coordinator-side processes against
passive memory nodes:

**Coordinator (log) recovery, §3.4.1.**  A newly elected coordinator
reads the circular logs from all reachable memory nodes, merges them into
"a consistent, up-to-date version of the log", repairs nodes whose logs
differ from the majority, and replays the merged log so that "all
previously committed writes have been applied to the replicated memory".
The merge adds two rules to the paper's prose, both forced by the same
races Raft handles: at equal log index the higher *term* wins, and
entries after the newest term's last one are dropped.  Both live in
:func:`repro.core.rules.merge_logs` (§4.3's KV WAL replay uses the same
merge), and :func:`repro.core.rules.repairs` picks what to rewrite.

**Memory-node recovery, §3.4.2.**  A background thread polls failed
nodes; when one reconnects, the coordinator incrementally read-locks
regions of memory and copies them over, degrading write throughput
gradually while leaving reads unaffected, then commits a membership
change that brings the node back into quorums.  While the copy runs the
node already receives WAL appends and background applies — the block
locks guarantee a copied range cannot be concurrently applied to, which
is what makes the copy linearisable.

**Trust.**  A volatile memory node that crashes and restarts comes back
with zeroed DRAM, yet its admin word is writable again, so a recovering
coordinator must be able to tell "member with intact state" from "member
that silently lost everything".  Each node carries a *status word* in an
exclusive metadata region: the coordinator stamps it ``INITIALISED``
after bootstrap or a completed copy, and a restart wipes it.  Only
``member AND status-initialised`` nodes serve reads or count as data
sources.  Additionally, a coordinator commits a membership *removal*
immediately upon detecting a node failure; this closes the window in
which a successor could trust a node whose failure the old coordinator
had seen but not yet recorded.  (The one remaining hole — the old
coordinator dies before the removal commits *and* the WAL wraps before
the successor recovers — would need ~WAL-size committed writes in a few
hundred microseconds; we document rather than defend against it.)
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core import rules
from repro.core.errors import (
    GroupUnavailable,
    RecoveryIntegrityError,
    UntrustedSourceError,
)
from repro.core.locks import LockMode
from repro.core.membership import MEMBERSHIP_ADDR, Membership
from repro.core.partition import plan_fragments, plan_partitions
from repro.core.replicated_memory import NodeState, ReplicatedMemory
from repro.obs import state as obs_state
from repro.rdma.errors import RdmaError, RdmaTimeout
from repro.rdma.qp import ACK_WIRE_BYTES, QpState, QueuePair
from repro.sim.engine import Event, ProcessKilled, all_of
from repro.storage.memory_node import (
    META_REGION,
    RECOVERY_REGION,
    REPMEM_REGION,
    STATUS_INITIALISED,
    STATUS_OFFSET,
    STATUS_UNINITIALISED,
)
from repro.storage.wal import WalEntry

__all__ = [
    "recover_log", "scan_log", "RecoveryResult", "MemoryNodeRecoveryManager", "PartitionProgress",
]

PUSH_DESCRIPTOR_BYTES = 64
"""Wire size of one coordinator->source push command (range + grant info)."""

PUSH_TIMEOUT_FLOOR_US = 10_000.0
"""Minimum completion budget granted to one commanded push.  Pushes queue
bulk fragments behind a source NIC's transmit queue, so their legitimate
completion times scale with the number of concurrent readers; the budget
is sized from the deployment geometry with this floor under it."""

_WAL_READ_CHUNK = 256 * 1024
"""Bytes per one-sided read while scanning a node's WAL."""
_ZERO_CHUNK = bytes(_WAL_READ_CHUNK)
_ZERO_WORD = bytes(8)


class RecoveryResult(NamedTuple):
    """Outcome of log recovery: who to activate, who to re-copy."""

    membership: Membership
    live: Set[int]
    bootstrap: bool
    replayed_entries: int


def recover_log(repmem: ReplicatedMemory):
    """Process: §3.4.1 log recovery; returns a :class:`RecoveryResult`.

    Must run after :meth:`ReplicatedMemory.connect` and before
    :meth:`ReplicatedMemory.activate`.  On return, every *trusted member*
    node holds the merged log and fully replayed replicated memory, and
    ``repmem.next_index`` points past the last recovered entry.
    """
    config = repmem.config
    costs = repmem.costs
    layout = repmem.wal_layout
    connected = sorted(repmem.qps)
    if len(connected) < config.quorum:
        raise GroupUnavailable(
            f"log recovery needs a quorum, only {len(connected)} nodes connected"
        )

    # 0. Which connected nodes still hold usable state?
    trusted: Set[int] = set()
    for n in connected:
        try:
            status = yield from repmem.read_status(n)
        except RdmaError:
            repmem.mark_node_dead(n)
            continue
        if status == STATUS_INITIALISED:
            trusted.add(n)
    connected = sorted(repmem.qps)

    # 1. Read every connected node's WAL, in bounded chunks.  Untrusted
    #    nodes are scanned too: a stale persistent node may hold genuine
    #    entries that survive the merge rules below.
    node_entries: Dict[int, Dict[int, WalEntry]] = {}
    for n in connected:
        try:
            entries = yield from scan_log(
                repmem.qps[n], 0, layout.entry_count, layout.slot_bytes, repmem.codec.decode
            )
        except RdmaError:
            repmem.mark_node_dead(n)
            trusted.discard(n)
            continue
        yield repmem.host.execute(costs.apply_entry_us)  # header scan pass
        node_entries[n] = {entry.log_index: entry for entry in entries}
    if len(node_entries) < config.quorum:
        raise GroupUnavailable("lost quorum while reading WALs")

    # 2. Merge (log indices start at 1, so floor 0 keeps every entry).
    authoritative = rules.merge_logs(node_entries.values())
    if authoritative:
        repmem.next_index = authoritative[-1].log_index + 1

    # 3. Bootstrap: nobody initialised and nothing logged means a fresh
    #    group; adopt the connected set and stamp everyone.
    total = len(repmem.memory_nodes)
    if not trusted and not authoritative:
        membership = Membership(1, frozenset(connected))
        for n in connected:
            yield from repmem.write_status(n, STATUS_INITIALISED)
        repmem.membership = membership
        return RecoveryResult(membership, set(connected), True, 0)

    # 4. Determine membership: the newest membership entry in the merged
    #    log wins; otherwise the max-epoch word applied on trusted nodes;
    #    otherwise the trusted set itself (group died before its first
    #    membership commit).
    membership: Optional[Membership] = None
    for entry in reversed(authoritative):
        if entry.address == MEMBERSHIP_ADDR:
            membership = Membership.unpack(entry.data, total)
            break
    if membership is None:
        best: Optional[Membership] = None
        for n in sorted(trusted):
            try:
                word = yield repmem.qps[n].read(
                    REPMEM_REGION, repmem.amap.raw_extent(MEMBERSHIP_ADDR), 8
                )
            except RdmaError:
                repmem.mark_node_dead(n)
                trusted.discard(n)
                continue
            if int.from_bytes(word, "little") == 0:
                continue
            decoded = Membership.unpack(word, total)
            if best is None or decoded.epoch > best.epoch:
                best = decoded
        membership = best if best is not None else Membership(0, frozenset(trusted))

    live = trusted & membership.members & set(repmem.qps)
    if len(live) < config.quorum:
        salvaged = yield from _try_salvage(repmem, membership, live, trusted)
        if salvaged is None:
            raise GroupUnavailable(
                f"only {len(live)} trusted member nodes reachable, need {config.quorum}"
            )
        live = salvaged
        trusted |= salvaged

    # 5. Repair lagging logs on the nodes that will serve (§3.4.1).
    repair_acks = [
        repmem.qps[n].write(
            REPMEM_REGION, layout.slot_offset(entry.log_index), repmem.codec.encode(entry)
        )
        for n, entry in rules.repairs(authoritative, node_entries, live)
    ]
    if repair_acks:
        yield all_of(repmem.sim, repair_acks)

    # 6. Replay every recovered entry onto every live node, in log order.
    #    Replays are absolute writes, so re-applying already-applied
    #    entries is idempotent.
    for entry in authoritative:
        yield repmem.host.execute(costs.apply_entry_us)
        offset, chunks = repmem.amap.raw_extent(entry.address), None
        if repmem.rs is not None and repmem.amap.is_encoded(entry.address, len(entry.data)):
            kb = len(entry.data) / 1024.0
            yield repmem.host.execute(costs.ec_encode_us_per_kb * kb)
            block = repmem.amap.block_index(entry.address)
            start, end = repmem.amap.block_bounds(block)
            if entry.address != start or len(entry.data) != end - start:
                raise GroupUnavailable("corrupt WAL: partial-block entry in the encoded zone")
            offset, chunks = repmem.amap.chunk_extent(block), repmem.rs.encode(entry.data)
        share: dict = {}
        acks = [
            repmem.qps[n].write(
                REPMEM_REGION, offset, chunks[n] if chunks else entry.data, share=share
            )
            for n in sorted(live)
            if n in repmem.qps
        ]
        if acks:
            yield all_of(repmem.sim, acks)

    repmem.membership = membership
    return RecoveryResult(membership, live, False, len(authoritative))


def scan_log(qp: QueuePair, offset: int, count: int, slot_bytes: int, decode: Callable):
    """Process: read *count* log slots at *offset* of a node's replicated region
    in bounded chunks; returns, in slot order, each slot *decode* does not reject.

    Each chunk is scanned in place as it arrives; only a slot cut by the
    chunk boundary is copied, its pieces joined.  Only slots whose leading
    8-byte index word is non-zero reach *decode*: both log codecs reject a
    zero one, so the host work follows what the log holds, not its capacity.
    An all-zero chunk, most of a boot's, is passed over by one memcmp."""
    entries = []
    carry = b""
    total = count * slot_bytes
    for start in range(0, total, _WAL_READ_CHUNK):
        take = min(_WAL_READ_CHUNK, total - start)
        chunk = yield qp.read(REPMEM_REGION, offset + start, take)
        head = min(-len(carry) % slot_bytes, take)  # what finishes the cut slot
        carry += chunk[:head]
        if len(carry) == slot_bytes:
            if any(carry[:8]) and (entry := decode(carry)) is not None:
                entries.append(entry)
            carry = b""
        whole = take - head - (take - head) % slot_bytes
        if not _ZERO_CHUNK.startswith(memoryview(chunk)[head : head + whole]):
            for begin in range(head, head + whole, slot_bytes):
                if not chunk.startswith(_ZERO_WORD, begin):
                    if (entry := decode(chunk[begin : begin + slot_bytes])) is not None:
                        entries.append(entry)
        carry += chunk[head + whole :]
    return entries


def _try_salvage(repmem: ReplicatedMemory, membership: Membership, live: Set[int], trusted: Set[int]):
    """Process: §3.5 salvage for minority-persistent deployments.

    After a full power cycle, a group whose persistent nodes are a
    *minority* has intact data on too few nodes to form a quorum, while
    the volatile majority restarted blank.  When plain replication is in
    use (any single replica is a complete copy), **every** member is
    reachable, and at least one is trusted, the surviving replica is
    authoritative up to the §3.5 caveat — acknowledged writes whose
    commit quorum consisted entirely of volatile nodes may be lost,
    which is exactly the "tunable amounts of data loss" the paper
    describes for this configuration.  The salvage copies the trusted
    replica onto each blank member and stamps their status words, after
    which recovery proceeds normally.

    Returns the new live set, or None when salvage is not applicable
    (erasure coding — one node does not hold a decodable copy — or an
    unreachable member that might hold newer state).
    """
    config = repmem.config
    if config.erasure_coding or not live or not membership.members <= set(repmem.qps):
        return None  # an absent member could hold newer committed state
    source = repmem.qps[min(live)]
    targets = sorted(membership.members - live)
    node_config = config.memory_node_config()
    begin = node_config.data_offset
    end = node_config.data_offset + node_config.data_bytes
    for n in targets:
        for offset in range(begin, end, _WAL_READ_CHUNK):
            share: dict = {}
            length = min(_WAL_READ_CHUNK, end - offset)
            data = yield source.read(REPMEM_REGION, offset, length, share)
            yield repmem.qps[n].write(REPMEM_REGION, offset, data, share=share)
        yield from repmem.write_status(n, STATUS_INITIALISED)
    return set(membership.members)


class MemoryNodeRecoveryManager:
    """§3.4.2: background poller + incremental copy for failed nodes."""

    def __init__(self, repmem: ReplicatedMemory):
        self.repmem = repmem
        self.running = False
        self._recovering: Set[int] = set()
        self.recoveries_completed = 0
        self.copy_stats: Dict[int, Dict[str, object]] = {}
        """Per-node stats of the last *completed* copy: partitions,
        copy_us, bytes, sources.  Consumed by benches and tests."""

    def start(self) -> None:
        """Spawn the background poller on the coordinator host."""
        self.running = True
        self.repmem.host.spawn(self._poller(), name="memnode-recovery")

    def stop(self) -> None:
        """Stop polling (the coordinator is shutting down or deposed)."""
        self.running = False

    # -- background poller -------------------------------------------------------

    def _poller(self):
        repmem = self.repmem
        while self.running and repmem.running and not repmem.deposed:
            yield repmem.sim.timeout(repmem.config.memnode_poll_interval_us)
            if not self.running or not repmem.running or repmem.deposed:
                return
            for n, state in list(repmem.states.items()):
                if state != NodeState.DEAD or n in self._recovering:
                    continue
                node = repmem.memory_nodes[n]
                if not node.alive or not repmem.nic.fabric.reachable(repmem.host.name, node.name):
                    continue
                self._recovering.add(n)
                repmem.host.spawn(self._recover_node(n), name=f"recover-mem-{n}")

    # -- one node's recovery --------------------------------------------------------

    def _recover_node(self, n: int):
        repmem = self.repmem
        node = repmem.memory_nodes[n]
        try:
            qp = QueuePair(repmem.nic, node.listener, name=f"repmem-{n}")
            try:
                yield repmem.host.spawn(qp.connect([REPMEM_REGION, META_REGION]))
            except Exception:
                return  # node vanished again; the poller will retry
            # The node must not be trusted (nor be a member) until the
            # copy completes, even if it is a stale persistent node.
            yield from repmem.commit_membership(
                lambda m: m.without_member(n) if n in m.members else m
            )
            repmem.begin_node_recovery(n, qp)
            yield from repmem.write_status(n, STATUS_UNINITIALISED)

            yield from self._copy_all(n, qp)
            if not repmem.running or repmem.deposed:
                return
            yield from repmem.write_status(n, STATUS_INITIALISED)
            repmem.finish_node_recovery(n)
            yield from repmem.commit_membership(lambda m: m.with_member(n))
            self.recoveries_completed += 1
        except Exception:
            # Any failure (node died again, we got deposed) abandons the
            # attempt; a later poll retries from scratch.
            repmem.mark_node_dead(n)
        finally:
            self._recovering.discard(n)

    def _copy_all(self, n: int, qp: QueuePair):
        """Incrementally copy the whole logical space to node *n*.

        With ``recovery_partitions=1`` — and in any erasure-coded group,
        since only the coordinator can decode and re-encode the target's
        chunks — one crew runs inline and moves each fragment through the
        coordinator (§3.4.2).  Above one, the image is split by
        :func:`repro.core.partition.plan_partitions` and each partition's
        crew has a source node push its fragments, RAMCloud-style.
        Either way the copy ends with a pure-local verify step proving
        the copied fragments tile the address space exactly, *before*
        the caller stamps the status word.
        """
        repmem = self.repmem
        config = repmem.config
        started_us = repmem.sim.now
        failures: List[BaseException] = []
        if config.recovery_partitions > 1 and repmem.rs is None:
            progresses = yield from self._copy_partitioned(n, failures)
        else:
            fragments = plan_fragments(
                config.data_bytes, config.recovery_chunk_bytes, config.direct_bytes
            )
            progresses = [PartitionProgress(0, None, 0, config.data_bytes, started_us)]
            yield from self._crew(
                n, progresses[0], fragments, partial(self._copy_range, n, qp),
                f"copy-{n}", failures,
            )
        if failures:
            raise failures[0]
        if not repmem.running or repmem.deposed:
            return
        self._verify_copy(n, progresses)
        self._record_copy(n, progresses, started_us)

    def _crew(
        self,
        n: int,
        progress: "PartitionProgress",
        fragments: Sequence[Tuple[int, int]],
        move: Callable,
        name: str,
        failures: List[BaseException],
    ):
        """Process: copy *fragments* to node *n* with ``recovery_parallelism``
        readers, in address order.

        Each reader holds a fragment's block read locks while ``move(addr,
        length)`` runs, so no background apply can touch a range while it
        is copied; a reader that fails records the error in *failures* and
        stops.  The concurrent readers are the paper's aggressive copy,
        whose bandwidth use is what dents workload throughput in Figure 11.
        """
        repmem = self.repmem
        pending = list(reversed(fragments))  # popped from the front of the order
        span = None
        if obs_state.TRACER is not None:
            span = obs_state.TRACER.span(
                "recovery.partition", repmem.sim.now, node=n, partition=progress.index,
                source=progress.source, start=progress.start, end=progress.end,
            )

        def reader():
            while pending and repmem.running and not repmem.deposed:
                addr, length = pending.pop()
                blocks = repmem.amap.blocks_of(addr, length)
                token = yield from repmem.locks.acquire(blocks, LockMode.READ)
                try:
                    yield from move(addr, length)
                    self._note_fragment(n, progress, addr, length)
                except BaseException as exc:
                    failures.append(exc)
                    return
                finally:
                    repmem.locks.release(token)

        readers = [
            repmem.host.fork(reader(), name=name)
            for _ in range(repmem.config.recovery_parallelism)
        ]
        for proc in readers:
            try:
                yield proc
            except Exception as exc:
                failures.append(exc)
        progress.finished_us = repmem.sim.now
        if span is not None:
            span.annotate(fragments=len(progress.done), bytes=progress.bytes_done)
            span.finish(repmem.sim.now)

    def _copy_partitioned(self, n: int, failures: List[BaseException]):
        """Process: open a push channel per source, then run one crew per
        partition (P > 1, replication); returns the partitions' progress.

        Fragment payloads flow **source → target** instead of through the
        coordinator's NIC, so aggregate copy bandwidth scales with the
        number of source links.  The coordinator keeps the lock
        discipline: a fragment is pushed only while its crew holds the
        blocks' read locks, and the push command travels the same
        RC-ordered channel as the background applies, so the source's
        bytes are current when the push begins.
        """
        repmem = self.repmem
        config = repmem.config
        plan = plan_partitions(
            config.data_bytes,
            config.recovery_chunk_bytes,
            config.recovery_partitions,
            direct_bytes=config.direct_bytes,
            block_bytes=config.block_bytes,
        )
        sources = [
            m
            for m in sorted(repmem.states)
            if m != n and repmem.states[m] == NodeState.LIVE and m in repmem.qps
        ]
        if not sources:
            raise GroupUnavailable("partitioned recovery needs a live source node")
        assignment = {part.index: sources[part.index % len(sources)] for part in plan}

        nic = repmem.memory_nodes[sources[0]].nic
        serialise_us = (
            config.recovery_chunk_bytes / nic.bytes_per_us + nic.verb_overhead_us
        )
        # Worst case every in-flight fragment queues behind one source
        # NIC; double that for propagation/ack slack.
        budget_us = (
            PUSH_TIMEOUT_FLOOR_US
            + 2.0 * len(plan) * config.recovery_parallelism * serialise_us
        )
        pushers = {
            m: _FragmentPusher(repmem, m, n, budget_us)
            for m in sorted(set(assignment.values()))
        }
        progresses: List[PartitionProgress] = []
        try:
            opens = [
                (pusher, repmem.host.fork(pusher.open(), name=f"push-open-{m}-{n}"))
                for m, pusher in pushers.items()
            ]
            for pusher, proc in opens:
                try:
                    yield proc
                except Exception as exc:
                    failures.append(exc)
                    # The source refused because it restarted unnoticed:
                    # mark it dead so the poller recovers it first.
                    if isinstance(exc, UntrustedSourceError):
                        repmem.mark_node_dead(pusher.source.node_index)
            if failures:
                raise failures[0]
            crews = []
            for part in plan:
                source = assignment[part.index]
                progress = PartitionProgress(
                    part.index, source, part.start, part.end, repmem.sim.now
                )
                progresses.append(progress)
                crew = self._crew(
                    n, progress, part.fragments, pushers[source].push,
                    f"copy-{n}-p{part.index}", failures,
                )
                crews.append(repmem.host.fork(crew, name=f"copy-crew-{n}-p{part.index}"))
            for proc in crews:
                try:
                    yield proc
                except Exception as exc:
                    failures.append(exc)
        finally:
            for pusher in pushers.values():
                pusher.close()
        return progresses

    # -- verify / bookkeeping ----------------------------------------------------

    def _verify_copy(self, n: int, progresses: List["PartitionProgress"]) -> None:
        """The merge step: copied fragments must tile ``[0, data_bytes)``.

        Runs before the coordinator stamps ``INITIALISED`` — a gap,
        overlap, or short partition means the node must not be trusted,
        so the error aborts the attempt and the poller retries from
        scratch.  Pure local arithmetic: no verbs, no yields.
        """
        data_bytes = self.repmem.config.data_bytes
        for progress in progresses:
            if progress.bytes_done != progress.end - progress.start:
                raise self._integrity_failure(
                    n,
                    f"node {n} partition {progress.index}: copied "
                    f"{progress.bytes_done}B of [{progress.start}, {progress.end})",
                )
        fragments = sorted(f for p in progresses for f in p.done)
        cursor = 0
        for addr, length in fragments:
            if addr != cursor:
                kind = "overlap" if addr < cursor else "gap"
                raise self._integrity_failure(
                    n,
                    f"node {n}: {kind} at byte {min(addr, cursor)} "
                    "in the copied ranges",
                )
            cursor = addr + length
        if cursor != data_bytes:
            raise self._integrity_failure(
                n, f"node {n}: copy covers [0, {cursor}) of [0, {data_bytes})"
            )

    def _integrity_failure(self, n: int, message: str) -> RecoveryIntegrityError:
        """Build the integrity error, dumping a postmortem when traced.

        On traced runs (chaos keeps a flight recorder installed) the
        recent-span ring plus registry snapshot land in a postmortem
        file the error message points at; untraced runs lose nothing.
        """
        from repro.obs.flight import maybe_postmortem

        sim = getattr(self.repmem, "sim", None)
        path = maybe_postmortem(
            f"recovery integrity {message}",
            extra={
                "node": n,
                "sim_now_us": sim.now if sim is not None else None,
            },
        )
        if path is not None:
            message = f"{message} [postmortem: {path}]"
        return RecoveryIntegrityError(message)

    def _note_fragment(
        self, n: int, progress: "PartitionProgress", addr: int, length: int
    ) -> None:
        progress.done.append((addr, length))
        progress.bytes_done += length
        if obs_state.REGISTRY is not None:
            registry = obs_state.REGISTRY
            registry.counter("recovery.fragments", node=n).inc()
            registry.counter("recovery.bytes", node=n).inc(length)

    def _record_copy(
        self, n: int, progresses: List["PartitionProgress"], started_us: float
    ) -> None:
        repmem = self.repmem
        copy_us = repmem.sim.now - started_us
        total = sum(p.bytes_done for p in progresses)
        self.copy_stats[n] = {
            "partitions": len(progresses),
            "copy_us": copy_us,
            "bytes": total,
            "sources": sorted({p.source for p in progresses if p.source is not None}),
            "finished_at_us": repmem.sim.now,
        }
        if obs_state.REGISTRY is not None:
            registry = obs_state.REGISTRY
            registry.gauge("recovery.copy_us", node=n).set(copy_us)
            registry.gauge("recovery.partitions", node=n).set(len(progresses))
            if copy_us > 0:
                registry.gauge("recovery.bytes_per_us", node=n).set(total / copy_us)
            for p in progresses:
                if p.duration_us > 0:
                    registry.gauge(
                        "recovery.partition_bytes_per_us", node=n, partition=p.index
                    ).set(p.bytes_done / p.duration_us)

    def _copy_range(self, n: int, qp: QueuePair, addr: int, length: int):
        repmem, amap = self.repmem, self.repmem.amap
        if not amap.is_encoded(addr, length):
            share: dict = {}
            data = yield from repmem._raw_read(addr, length, share)
            yield qp.write(REPMEM_REGION, amap.raw_extent(addr), data, share=share)
            return
        for block in range(amap.block_index(addr), amap.block_index(addr + length - 1) + 1):
            data = yield from repmem._read_encoded_block(block)
            yield repmem.host.execute(repmem.costs.ec_encode_us_per_kb * (len(data) / 1024.0))
            yield qp.write(REPMEM_REGION, amap.chunk_extent(block), repmem.rs.encode(data)[n])


class PartitionProgress:
    """Pure-local copy bookkeeping for one partition (no sim effects).

    A coordinator-driven copy has one, with ``source=None`` (fragments
    flow coordinator→target); a partitioned copy has one per partition,
    with ``source`` naming the pushing memory node.
    """

    __slots__ = (
        "index",
        "source",
        "start",
        "end",
        "done",
        "bytes_done",
        "started_us",
        "finished_us",
    )

    def __init__(
        self,
        index: int,
        source: Optional[int],
        start: int,
        end: int,
        started_us: float,
    ):
        self.index = index
        self.source = source
        self.start = start
        self.end = end
        self.done: List[Tuple[int, int]] = []
        self.bytes_done = 0
        self.started_us = started_us
        self.finished_us: Optional[float] = None

    @property
    def duration_us(self) -> float:
        """Wall (simulated) time the partition's crew ran."""
        end = self.finished_us if self.finished_us is not None else self.started_us
        return end - self.started_us

    def __repr__(self) -> str:
        return (
            f"<PartitionProgress {self.index} [{self.start}, {self.end}) "
            f"{self.bytes_done}B src={self.source}>"
        )


class _FragmentPusher:
    """Coordinator-held handle for one source→target push channel.

    The coordinator never moves fragment bytes itself: it sends small
    command descriptors to the *source* memory node over its ordinary
    verb channel — RC ordering puts each command after every apply the
    coordinator already posted toward that source, so the source's copy
    of a commanded range is current — and the source streams the bytes
    straight to the rejoining node through a queue pair granted the
    fenced ``repmem-recovery`` view.  Completion flows back as a small
    ack; a deterministic timeout guard bounds every wait so a crashed
    source or target cannot wedge the recovery process.
    """

    def __init__(
        self,
        repmem: ReplicatedMemory,
        source_index: int,
        target_index: int,
        budget_us: float,
    ):
        self.repmem = repmem
        self.source = repmem.memory_nodes[source_index]
        self.target = repmem.memory_nodes[target_index]
        self.budget_us = budget_us
        self._incarnation = self.source.host.incarnation
        self.qp: Optional[QueuePair] = None

    # -- coordinator-side processes ---------------------------------------------

    def open(self):
        """Process: command the source to connect its push channel."""
        source, target = self.source, self.target

        def connect():
            qp = QueuePair(
                source.nic,
                target.listener,
                name=f"push-{source.node_index}-{target.node_index}",
            )
            yield from qp.connect([RECOVERY_REGION])
            self.qp = qp

        yield self._request("open", connect, f"push-connect-{target.node_index}")

    def push(self, addr: int, length: int):
        """Process: stream one read-locked fragment source→target.

        Returns once the target's memory holds the bytes (the source's
        RC write ack has been relayed back to the coordinator).
        """
        repmem = self.repmem
        offset = repmem.amap.raw_extent(addr)
        source = self.source

        def write():
            qp = self.qp
            if qp is None or qp.state is not QpState.CONNECTED:
                raise RdmaError(f"push channel to {self.target.name} not connected")
            share: dict = {}
            data = source.repmem_region.read(offset, length, share)
            yield source.host.execute(repmem.costs.rdma_post_us)
            yield qp.write(RECOVERY_REGION, offset, data, timeout_us=self.budget_us, share=share)

        try:
            yield self._request(
                "push", write, f"push-{source.node_index}-{self.target.node_index}"
            )
        except UntrustedSourceError:
            # The refusal is the first (and possibly only) signal that the
            # source restarted — no apply has failed toward it yet — so mark
            # it dead: the poller recovers it first, and the retried copy of
            # this node finds trustworthy sources.
            repmem.mark_node_dead(source.node_index)
            raise

    def close(self) -> None:
        """Drop the push channel (bookkeeping only, as with QP close)."""
        qp, self.qp = self.qp, None
        if qp is not None:
            qp.close()

    # -- mechanics ---------------------------------------------------------------

    def _attest_initialised(self) -> None:
        """Source-side trust gate, run on the source's own CPU.

        A node that restarted before the coordinator noticed still shows
        as live in the state map, but its cleared meta region reads
        UNINITIALISED — were it to serve pushes it would feed zeroed
        pages to the rejoining node (the verify step only proves the
        fragments *tile*, not that their bytes were trustworthy).  The
        coordinator-driven copy is immune because it rides QPs established
        with the old incarnation, which a restart revokes; commands are
        issued fresh, so the source must attest its own status instead.
        """
        word = self.source.meta_region.read_word(STATUS_OFFSET)
        if word != STATUS_INITIALISED:
            raise UntrustedSourceError(
                f"{self.source.name} is not initialised and cannot "
                "serve recovery fragments"
            )

    def _request(self, what: str, body: Callable, name: str) -> Event:
        """Run ``body()`` as process *name* on the source once a command
        verb reaches it; returns the event that settles with its outcome.

        The command is one small descriptor verb, RC-ordered after every
        apply the coordinator has already posted toward the source.  The
        source attests its status before running *body*, and relays the
        result back.  The wait fails fast when the command verb errors,
        and gives up after the deterministic push budget.
        """
        repmem = self.repmem
        sim = repmem.sim
        source = self.source
        incarnation = self._incarnation
        answer = Event(sim)

        def run():
            try:
                self._attest_initialised()
                yield from body()
            except ProcessKilled:
                raise
            except BaseException as exc:
                self._answer(answer, error=exc)
                return
            self._answer(answer)

        def apply_remote() -> None:
            if source.host.incarnation != incarnation:
                raise RdmaError(f"recovery source {source.name} restarted")
            source.host.spawn(run(), name=name)

        # The command's ack serialises through the source's transmit
        # queue, behind any fragment writes already in flight there, so
        # it needs the same queue-aware budget as the pushes themselves —
        # the NIC's default verb timeout is sized for an idle link.
        command = repmem.nic.transfer(
            source.host,
            PUSH_DESCRIPTOR_BYTES,
            ACK_WIRE_BYTES,
            apply_remote,
            timeout_us=self.budget_us,
            verb=f"recovery_{what}",
        )
        sim.within(
            answer,
            self.budget_us,
            RdmaTimeout,
            f"recovery {what} via {source.name} exceeded {self.budget_us}us",
        )

        def forward(event: Event) -> None:
            if event.failed:
                answer.try_fail(event.exception)

        command.add_callback(forward)
        return answer

    def _answer(self, event: Event, error=None) -> None:
        """Relay a source-side completion back to the coordinator."""
        repmem = self.repmem
        source = self.source
        if not source.host.alive:
            return  # the guard timeout reports the loss

        def arrive() -> None:
            if error is not None:
                event.try_fail(error)
            else:
                event.try_trigger(None)

        repmem.nic.fabric.deliver(
            source.host,
            repmem.host,
            ACK_WIRE_BYTES,
            arrive,
            latency=source.nic.propagation,
            stream="rdma",
        )
