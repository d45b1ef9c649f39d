"""Raft-R: the paper's RDMA-based Raft-like comparison system (§6.3.1).

"This Raft-like key-value store, which we call Raft-R, maintains a
complete replica on the leader.  Write requests are replicated to a
majority of nodes (including the leader) before they are committed.
Read requests are serviced locally from the leader's replica.  It uses a
partitioned map with 1000 partitions to reduce contention and
read/write locks to provide strong consistency."

Every node is provisioned like the leader (that is the resource-coupling
Sift attacks): a full in-memory replica plus enough cores to lead.
Replication uses two-sided RDMA SEND/RECV — messages ride the RDMA
latency profile but *the follower CPUs actively process every message*,
unlike Sift's passive memory nodes.

The implementation is a real (if compact) Raft: terms, randomized
election timeouts, RequestVote with the log-up-to-date check,
AppendEntries with the prev-index/term consistency check and follower
log truncation, and leader commit via the majority match index.
Snapshots and membership changes are out of scope (the paper's Raft-R is
a fixed group).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.net.fabric import Fabric
from repro.net.host import Host
from repro.net.rpc import Reply, RpcEndpoint
from repro.obs import state as obs_state
from repro.rdma.messaging import RdmaMessenger
from repro.rdma.nic import Rnic
from repro.sim.engine import Event
from repro.sim.units import MS

__all__ = ["RaftCluster", "RaftConfig", "RaftNode"]


@dataclass(frozen=True)
class RaftCosts:
    """Per-message / per-op CPU charges (core-microseconds)."""

    msg_recv_us: float = 1.2
    """Reaping and parsing one SEND/RECV message."""

    log_append_us: float = 1.0
    """Appending one entry to the in-memory log (per entry)."""

    apply_us: float = 2.0
    """Applying one committed entry to the partitioned map."""

    map_read_us: float = 2.0
    """Partition lock + map lookup for a local read."""

    op_us: float = 4.0
    """Leader-side bookkeeping per client request."""

    write_op_us: float = 12.0
    """Extra leader work per write: copying the ~1 KiB entry into the
    per-follower replication buffers, partition write-lock handling, and
    commit bookkeeping.  Calibrated so Raft-R's write-only saturation
    sits ~3x below its read-only saturation, the ratio §6.3.2 reports."""


@dataclass(frozen=True)
class RaftConfig:
    """One Raft-R deployment."""

    f: int = 1
    cores: int = 8  # Table 2: Raft-R nodes get 8 cores
    partitions: int = 1000  # §6.3.1
    heartbeat_us: float = 2_000.0
    election_timeout_min_us: float = 12_000.0
    election_timeout_max_us: float = 24_000.0
    max_batch: int = 64
    """Entries per AppendEntries message (pipelined batching)."""

    costs: RaftCosts = field(default_factory=RaftCosts)

    @property
    def nodes(self) -> int:
        """2F + 1 coupled replicas."""
        return 2 * self.f + 1

    @property
    def quorum(self) -> int:
        return self.f + 1


class _LogEntry(NamedTuple):
    term: int
    op: Tuple  # ("put", key, value) | ("delete", key)


class _AppendEntries(NamedTuple):
    term: int
    leader: int
    prev_index: int
    prev_term: int
    entries: Tuple[_LogEntry, ...]
    commit: int


class _AppendReply(NamedTuple):
    term: int
    follower: int
    success: bool
    match: int


class _RequestVote(NamedTuple):
    term: int
    candidate: int
    last_index: int
    last_term: int


class _VoteReply(NamedTuple):
    term: int
    voter: int
    granted: bool


ENTRY_WIRE_BYTES = 1_060  # key + value + metadata on the wire
CTRL_WIRE_BYTES = 64


class RaftNode:
    """One Raft-R replica (any of which may lead)."""

    def __init__(self, cluster: "RaftCluster", index: int):
        self.cluster = cluster
        self.index = index
        self.config = cluster.config
        fabric = cluster.fabric
        self.host: Host = fabric.add_host(
            f"{cluster.name}-n{index}", cores=self.config.cores
        )
        self.nic = Rnic(self.host, fabric)
        self.messenger = RdmaMessenger(self.host, self.nic)
        self.endpoint = RpcEndpoint(self.host, fabric, name="kv")
        self.sim = self.host.sim
        self._rng = fabric.rng.stream(f"raft:{cluster.name}:{index}")

        # Persistent-ish Raft state (in-memory; fail-stop loses it, which
        # is fine for an in-memory state machine baseline).
        self.term = 0
        self.voted_for: Optional[int] = None
        self.log: List[_LogEntry] = []

        # Volatile state.
        self.role = "follower"
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint: Optional[int] = None
        self._last_heartbeat = 0.0
        self._votes: set = set()

        # Leader state.
        self.next_index: Dict[int, int] = {}
        self.match_index: Dict[int, int] = {}
        self._commit_waiters: Dict[int, List[Event]] = {}
        self._replicator_kicks: Dict[int, Event] = {}

        # The replicated state machine: a partitioned map (§6.3.1).
        self.partitions: List[Dict[bytes, bytes]] = [
            {} for _ in range(self.config.partitions)
        ]
        self.stats = {"puts": 0, "gets": 0, "applied": 0, "elections_won": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the message pump and the election timer."""
        self.host.spawn(self._message_pump(), name="raft-pump")
        self.host.spawn(self._election_timer(), name="raft-timer")
        self.endpoint.register("kv.put", self.handle_put)
        self.endpoint.register("kv.get", self.handle_get)
        self.endpoint.register("kv.delete", self.handle_delete)

    def crash(self) -> None:
        """Fail-stop (the in-memory replica is lost)."""
        self.host.crash()
        self.role = "follower"

    def restart(self) -> None:
        """Restart with empty state (the in-memory baseline persists nothing).

        The node rejoins as a term-0 follower with an empty log and map;
        the leader's AppendEntries consistency check walks its next-index
        back and replays the whole log, exactly as after a fresh start.
        """
        if self.host.alive:
            return
        self.term = 0
        self.voted_for = None
        self.log = []
        self.role = "follower"
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint = None
        self._votes = set()
        self.next_index = {}
        self.match_index = {}
        self._commit_waiters = {}
        self._replicator_kicks = {}
        self.partitions = [{} for _ in range(self.config.partitions)]
        self.host.restart()
        self._last_heartbeat = self.sim.now
        self.start()

    @property
    def last_index(self) -> int:
        return len(self.log)

    def _last_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def _partition_of(self, key: bytes) -> Dict[bytes, bytes]:
        return self.partitions[hash(key) % self.config.partitions]

    # ------------------------------------------------------------------
    # Client handlers
    # ------------------------------------------------------------------

    def handle_put(self, payload: Tuple[bytes, bytes]):
        """Process: leader-only; commits via majority replication."""
        key, value = payload
        yield from self._commit_op(("put", bytes(key), bytes(value)))
        self.stats["puts"] += 1
        return Reply(("ok", self.commit_index), 32)

    def handle_delete(self, key: bytes):
        """Process: leader-only delete."""
        yield from self._commit_op(("delete", bytes(key)))
        return Reply(("ok", self.commit_index), 32)

    def handle_get(self, key: bytes):
        """Process: served locally from the leader's replica (§6.3.1)."""
        if self.role != "leader":
            raise NotLeader(self.leader_hint)
        yield self.host.execute(self.config.costs.op_us + self.config.costs.map_read_us)
        self.stats["gets"] += 1
        value = self._partition_of(key).get(bytes(key))
        if value is None:
            return Reply(("missing", None), 16)
        return Reply(("ok", value), 16 + len(value))

    def _commit_op(self, op: Tuple):
        if self.role != "leader":
            raise NotLeader(self.leader_hint)
        yield self.host.execute(
            self.config.costs.op_us
            + self.config.costs.write_op_us
            + self.config.costs.log_append_us
        )
        self.log.append(_LogEntry(self.term, op))
        index = self.last_index
        waiter = Event(self.sim)
        self._commit_waiters.setdefault(index, []).append(waiter)
        self._kick_replicators()
        yield waiter  # fails with NotLeader if we lose leadership
        yield from self._apply_to(self.commit_index)

    # ------------------------------------------------------------------
    # Message pump (the follower CPU work Sift eliminates)
    # ------------------------------------------------------------------

    def _message_pump(self):
        while True:
            message = yield self.messenger.recv()
            yield self.host.execute(self.config.costs.msg_recv_us)
            if isinstance(message, _AppendEntries):
                yield from self._on_append(message)
            elif isinstance(message, _AppendReply):
                self._on_append_reply(message)
            elif isinstance(message, _RequestVote):
                self._on_request_vote(message)
            elif isinstance(message, _VoteReply):
                self._on_vote_reply(message)

    def _send(self, to: int, message: Any, size: int) -> None:
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter(
                "raft.messages", kind=type(message).__name__.lstrip("_")
            ).inc()
        self.messenger.send(self.cluster.nodes[to].messenger, message, size)

    # -- AppendEntries ---------------------------------------------------------

    def _on_append(self, msg: _AppendEntries):
        if msg.term < self.term:
            self._send(
                msg.leader, _AppendReply(self.term, self.index, False, 0), CTRL_WIRE_BYTES
            )
            return
        self._observe_term(msg.term)
        self.leader_hint = msg.leader
        self._last_heartbeat = self.sim.now
        if self.role != "follower":
            self.role = "follower"
        # Consistency check.
        if msg.prev_index > self.last_index or (
            msg.prev_index > 0 and self.log[msg.prev_index - 1].term != msg.prev_term
        ):
            self._send(
                msg.leader,
                _AppendReply(self.term, self.index, False, 0),
                CTRL_WIRE_BYTES,
            )
            return
        if msg.entries:
            yield self.host.execute(self.config.costs.log_append_us * len(msg.entries))
            # Raft's append rule: skip entries we already hold (a stale
            # duplicate from leader pipelining must not truncate newer
            # entries); truncate only at an actual term conflict.
            index = msg.prev_index
            for position, entry in enumerate(msg.entries):
                index = msg.prev_index + position + 1
                if index <= self.last_index:
                    if self.log[index - 1].term == entry.term:
                        continue  # already have it
                    del self.log[index - 1 :]  # conflict: drop the suffix
                self.log.append(entry)
        if msg.commit > self.commit_index:
            self.commit_index = min(msg.commit, self.last_index)
            yield from self._apply_to(self.commit_index)
        self._send(
            msg.leader,
            _AppendReply(self.term, self.index, True, self.last_index),
            CTRL_WIRE_BYTES,
        )

    def _on_append_reply(self, msg: _AppendReply) -> None:
        if msg.term > self.term:
            self._observe_term(msg.term)
            return
        if self.role != "leader":
            return
        if msg.success:
            self.match_index[msg.follower] = max(
                self.match_index.get(msg.follower, 0), msg.match
            )
            # Never move next_index backwards on success: acks for older
            # batches race the optimistic advance of pipelined sends.
            self.next_index[msg.follower] = max(
                self.next_index.get(msg.follower, 1),
                self.match_index[msg.follower] + 1,
            )
            self._advance_commit()
        else:
            self.next_index[msg.follower] = max(
                1, self.next_index.get(msg.follower, 1) - self.config.max_batch
            )
        kick = self._replicator_kicks.pop(msg.follower, None)
        if kick is not None:
            kick.try_trigger(None)

    def _advance_commit(self) -> None:
        matches = sorted(
            [self.last_index] + [self.match_index.get(i, 0) for i in self._peers()],
            reverse=True,
        )
        candidate = matches[self.config.quorum - 1]
        # Raft commit rule: only entries of the current term commit by count.
        if candidate > self.commit_index and self.log[candidate - 1].term == self.term:
            self.commit_index = candidate
            for index in list(self._commit_waiters):
                if index <= candidate:
                    for waiter in self._commit_waiters.pop(index):
                        waiter.try_trigger(None)
            # Apply even when no client is waiting (e.g. the election
            # no-op committing a previous term's entries): local reads
            # are served from this map.
            self.host.spawn(self._apply_to(self.commit_index), name="apply")

    def _apply_to(self, index: int):
        while self.last_applied < index:
            self.last_applied += 1
            entry = self.log[self.last_applied - 1]
            yield self.host.execute(self.config.costs.apply_us)
            op = entry.op
            if op[0] == "put":
                self._partition_of(op[1])[op[1]] = op[2]
            elif op[0] == "delete":
                self._partition_of(op[1]).pop(op[1], None)
            # "noop" entries exist only to commit earlier terms.
            self.stats["applied"] += 1

    # -- elections ---------------------------------------------------------------

    def _election_timer(self):
        while True:
            timeout = self._rng.uniform(
                self.config.election_timeout_min_us,
                self.config.election_timeout_max_us,
            )
            yield self.sim.timeout(timeout)
            if self.role == "leader":
                continue
            if self.sim.now - self._last_heartbeat < timeout:
                continue
            self._start_election()

    def _start_election(self) -> None:
        self.term += 1
        self.role = "candidate"
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter("raft.elections_started").inc()
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "raft.election", self.sim.now, node=self.index, term=self.term
            )
        self.voted_for = self.index
        self._votes = {self.index}
        request = _RequestVote(self.term, self.index, self.last_index, self._last_term())
        for peer in self._peers():
            self._send(peer, request, CTRL_WIRE_BYTES)

    def _on_request_vote(self, msg: _RequestVote) -> None:
        if msg.term > self.term:
            self._observe_term(msg.term)
        granted = False
        if msg.term == self.term and self.voted_for in (None, msg.candidate):
            up_to_date = (msg.last_term, msg.last_index) >= (
                self._last_term(),
                self.last_index,
            )
            if up_to_date:
                granted = True
                self.voted_for = msg.candidate
                self._last_heartbeat = self.sim.now
        self._send(msg.candidate, _VoteReply(self.term, self.index, granted), CTRL_WIRE_BYTES)

    def _on_vote_reply(self, msg: _VoteReply) -> None:
        if msg.term > self.term:
            self._observe_term(msg.term)
            return
        if self.role != "candidate" or msg.term != self.term or not msg.granted:
            return
        self._votes.add(msg.voter)
        if len(self._votes) >= self.config.quorum:
            self._become_leader()

    def _become_leader(self) -> None:
        self.role = "leader"
        self.leader_hint = self.index
        self.stats["elections_won"] += 1
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter("raft.elections_won").inc()
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "raft.leader", self.sim.now, node=self.index, term=self.term
            )
        # Raft's no-op entry: a leader may only count replicas for entries
        # of its own term, so committing this no-op is what (transitively)
        # commits every surviving entry from earlier terms.
        self.log.append(_LogEntry(self.term, ("noop",)))
        self.next_index = {peer: self.last_index + 1 for peer in self._peers()}
        self.match_index = {peer: 0 for peer in self._peers()}
        for peer in self._peers():
            self.host.spawn(self._replicator(peer), name=f"repl-{peer}")
        self._kick_replicators()

    def _observe_term(self, term: int) -> None:
        if term > self.term:
            self.term = term
            self.voted_for = None
            if self.role == "leader":
                self._fail_waiters()
            self.role = "follower"

    def _fail_waiters(self) -> None:
        for index in list(self._commit_waiters):
            for waiter in self._commit_waiters.pop(index):
                waiter.try_fail(NotLeader(self.leader_hint))

    # -- replication --------------------------------------------------------------

    def _peers(self) -> List[int]:
        return [i for i in range(self.config.nodes) if i != self.index]

    def _kick_replicators(self) -> None:
        for peer, kick in list(self._replicator_kicks.items()):
            del self._replicator_kicks[peer]
            kick.try_trigger(None)

    def _replicator(self, peer: int):
        """Leader process: stream AppendEntries batches to one follower.

        One message is in flight at a time; new entries accumulate while
        an ack is outstanding, which yields natural batching under load.
        Empty messages (pure heartbeats) are paced at the heartbeat
        interval rather than at ack frequency.
        """
        my_term = self.term
        last_send = -self.config.heartbeat_us
        while self.role == "leader" and self.term == my_term:
            next_index = self.next_index.get(peer, self.last_index + 1)
            entries = tuple(
                self.log[next_index - 1 : next_index - 1 + self.config.max_batch]
            )
            if not entries:
                remaining = self.config.heartbeat_us - (self.sim.now - last_send)
                # Floor at 1us: a sub-resolution positive remainder
                # (float error) would otherwise re-arm a timer that
                # fires at the *same* simulated instant, forever.
                if remaining >= 1.0:
                    # Idle: wake on a new entry or when a heartbeat is due.
                    kick = Event(self.sim)
                    self._replicator_kicks[peer] = kick
                    timer = self.sim.timeout(remaining)
                    timer.add_callback(lambda _ev, k=kick: k.try_trigger(None))
                    yield kick
                    # If an entry arrived first the timer is now dead
                    # weight; cancelling keeps it out of the heap.
                    timer.cancel()
                    continue
            prev_index = next_index - 1
            prev_term = self.log[prev_index - 1].term if prev_index > 0 else 0
            message = _AppendEntries(
                self.term, self.index, prev_index, prev_term, entries, self.commit_index
            )
            size = CTRL_WIRE_BYTES + ENTRY_WIRE_BYTES * len(entries)
            self._send(peer, message, size)
            last_send = self.sim.now
            if entries:
                # Optimistically advance so the next batch pipelines.
                self.next_index[peer] = next_index + len(entries)
            # Wait for the ack (or a retry tick if it was lost).
            kick = Event(self.sim)
            self._replicator_kicks[peer] = kick
            timer = self.sim.timeout(self.config.heartbeat_us)
            timer.add_callback(lambda _ev, k=kick: k.try_trigger(None))
            yield kick
            timer.cancel()


class NotLeader(Exception):
    """Raised to clients who contact a non-leader replica."""

    def __init__(self, hint: Optional[int] = None):
        self.hint = hint
        super().__init__(f"not the leader (hint: {hint})")


class RaftCluster:
    """A Raft-R deployment: 2F+1 identically provisioned replicas."""

    kind = "raft"
    leader_based = True
    durable_across_crash = True
    ring = None
    memory_nodes = ()

    def __init__(self, fabric: Fabric, config: RaftConfig = RaftConfig(), name: str = "raft"):
        self.fabric = fabric
        self.config = config
        self.name = name
        self.nodes = [RaftNode(self, i) for i in range(config.nodes)]
        #: The client-facing, crashable nodes: any replica may lead.
        self.cpu_nodes = self.nodes

    def start(self) -> None:
        """Start all replicas; an election follows within the timeout."""
        for node in self.nodes:
            node.start()

    def is_serving(self) -> bool:
        return self.leader_node() is not None

    def leaders(self) -> List[Tuple[str, int]]:
        """``(host_name, term)`` for every replica that believes it leads."""
        return [
            (node.host.name, node.term)
            for node in self.nodes
            if node.role == "leader" and node.host.alive
        ]

    def leader_node(self) -> Optional[RaftNode]:
        """The current leader, if one is elected."""
        for node in self.nodes:
            if node.role == "leader" and node.host.alive:
                return node
        return None

    def wait_until_serving(self, timeout_us: Optional[float] = None):
        """Process: poll until a leader exists; returns it."""
        sim = self.fabric.sim
        deadline = None if timeout_us is None else sim.now + timeout_us
        while True:
            leader = self.leader_node()
            if leader is not None:
                return leader
            if deadline is not None and sim.now >= deadline:
                raise TimeoutError(f"no Raft leader after {timeout_us}us")
            yield sim.timeout(1 * MS)

    def crash_leader(self) -> Optional[RaftNode]:
        """Kill the current leader."""
        leader = self.leader_node()
        if leader is not None:
            leader.crash()
        return leader

    def preload(self, items) -> None:
        """Synchronously pre-populate every replica (§6.2 scaffolding)."""
        for key, value in items:
            key, value = bytes(key), bytes(value)
            for node in self.nodes:
                node._partition_of(key)[key] = value
