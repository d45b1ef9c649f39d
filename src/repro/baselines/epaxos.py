"""EPaxos as evaluated in §6.3.

EPaxos [21] is leaderless: every replica services client requests, so no
node is under-utilised — but "both reads and writes require network
operations" (§6.3.2), which caps read throughput far below the
leader-local reads of Raft-R and Sift, while write throughput benefits
from spreading command leadership across all replicas.

We implement the protocol shape that determines the evaluation's
numbers:

* every replica is a *command leader* for the ops its clients send;
* ops are **batched** before consensus — "we have changed the batching
  parameter from 5 ms to 100 µs or 100 requests, whichever comes first"
  (§6.3.1);
* a batch runs PreAccept at all peers and commits on the **fast path**
  when a fast quorum replies without adding new dependencies; when a
  peer reports unseen dependencies (a conflicting command for the same
  key in flight elsewhere), the batch takes the **slow path** — one more
  Accept round at a classic majority (the Paxos-Accept fallback);
* committed batches execute in dependency order at the command leader
  and are announced asynchronously to peers.

Relative to full EPaxos we simplify execution: the dependency graph is
per-key sequence numbers rather than full graph SCC linearisation.  This
preserves the message/CPU/latency profile (what Figures 5 and 6 measure)
while keeping per-key ordering exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.net.fabric import Fabric
from repro.net.host import Host
from repro.net.rpc import Reply, RpcEndpoint
from repro.obs import state as obs_state
from repro.rdma.messaging import RdmaMessenger
from repro.rdma.nic import Rnic
from repro.sim.engine import Event
from repro.sim.units import MS

__all__ = ["EPaxosCluster", "EPaxosConfig"]


@dataclass(frozen=True)
class EPaxosCosts:
    """Per-message / per-op CPU charges (core-microseconds)."""

    msg_recv_us: float = 1.2
    op_us: float = 4.0
    preaccept_us: float = 1.5
    """Dependency-table lookup/update per command at a peer."""

    execute_us: float = 2.0


@dataclass(frozen=True)
class EPaxosConfig:
    """One EPaxos deployment."""

    f: int = 1
    cores: int = 8
    batch_window_us: float = 100.0  # §6.3.1
    batch_max: int = 100  # §6.3.1
    costs: EPaxosCosts = field(default_factory=EPaxosCosts)

    @property
    def nodes(self) -> int:
        return 2 * self.f + 1

    @property
    def slow_quorum(self) -> int:
        """Classic majority, including the command leader."""
        return self.f + 1

    @property
    def fast_quorum(self) -> int:
        """EPaxos fast-path quorum, including the command leader:
        F + floor((F+1)/2) (Moraru et al.; 2 of 3 at F=1, 3 of 5 at F=2)."""
        return self.f + (self.f + 1) // 2


class _Command(NamedTuple):
    op: str  # "put" | "get" | "delete"
    key: bytes
    value: Optional[bytes]


class _PreAccept(NamedTuple):
    sender: int
    batch_id: int
    commands: Tuple[_Command, ...]
    seqs: Tuple[int, ...]


class _PreAcceptReply(NamedTuple):
    sender: int
    batch_id: int
    deps_changed: bool
    seqs: Tuple[int, ...]


class _Accept(NamedTuple):
    sender: int
    batch_id: int
    commands: Tuple[_Command, ...]
    seqs: Tuple[int, ...]


class _AcceptReply(NamedTuple):
    sender: int
    batch_id: int


class _Commit(NamedTuple):
    sender: int
    batch_id: int
    commands: Tuple[_Command, ...]


CMD_WIRE_BYTES = 1_060
CTRL_WIRE_BYTES = 64


class _BatchState:
    __slots__ = ("replies", "deps_changed", "done", "accept_replies", "commands")

    def __init__(self, done: Event, commands: Tuple[_Command, ...], leader: int):
        # Replies are tracked per sender: a duplicated network message must
        # not count twice toward a quorum.
        self.replies = {leader}  # the command leader pre-accepts its own batch
        self.accept_replies = {leader}
        self.deps_changed = False
        self.done = done
        self.commands = commands


class EPaxosReplica:
    """One EPaxos replica: command leader for its own clients."""

    def __init__(self, cluster: "EPaxosCluster", index: int):
        self.cluster = cluster
        self.index = index
        self.config = cluster.config
        fabric = cluster.fabric
        self.host: Host = fabric.add_host(
            f"{cluster.name}-r{index}", cores=self.config.cores
        )
        self.nic = Rnic(self.host, fabric)
        self.messenger = RdmaMessenger(self.host, self.nic)
        self.endpoint = RpcEndpoint(self.host, fabric, name="kv")
        self.sim = self.host.sim

        self.store: Dict[bytes, bytes] = {}
        self.key_seq: Dict[bytes, int] = {}  # per-key dependency sequence
        self._batch: List[Tuple[_Command, Event]] = []
        self._batch_timer_armed = False
        self._batch_ids = count(1)
        self._inflight: Dict[int, _BatchState] = {}
        self.stats = {"ops": 0, "batches": 0, "fast_path": 0, "slow_path": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.host.spawn(self._message_pump(), name="epaxos-pump")
        self.endpoint.register("kv.put", self.handle_put)
        self.endpoint.register("kv.get", self.handle_get)
        self.endpoint.register("kv.delete", self.handle_delete)

    def crash(self) -> None:
        self.host.crash()

    def restart(self) -> None:
        """Restart with empty state (in-flight batches at this replica die).

        Clients that were waiting on those batches observe RPC timeouts
        and retry elsewhere; peers' dependency tables already carry the
        sequence numbers this replica handed out, so ordering is safe.
        """
        if self.host.alive:
            return
        self.store = {}
        self.key_seq = {}
        self._batch = []
        self._batch_timer_armed = False
        self._inflight = {}
        self.host.restart()
        self.start()

    # ------------------------------------------------------------------
    # Client handlers: everything goes through consensus (§6.3.2)
    # ------------------------------------------------------------------

    def handle_put(self, payload: Tuple[bytes, bytes]):
        key, value = payload
        yield from self._submit(_Command("put", bytes(key), bytes(value)))
        self.stats["ops"] += 1
        return Reply(("ok", None), 32)

    def handle_get(self, key: bytes):
        yield from self._submit(_Command("get", bytes(key), None))
        self.stats["ops"] += 1
        value = self.store.get(bytes(key))
        if value is None:
            return Reply(("missing", None), 16)
        return Reply(("ok", value), 16 + len(value))

    def handle_delete(self, key: bytes):
        yield from self._submit(_Command("delete", bytes(key), None))
        self.stats["ops"] += 1
        return Reply(("ok", None), 32)

    def _submit(self, command: _Command):
        yield self.host.execute(self.config.costs.op_us)
        done = Event(self.sim)
        self._batch.append((command, done))
        if len(self._batch) >= self.config.batch_max:
            self._flush()
        elif not self._batch_timer_armed:
            self._batch_timer_armed = True
            self.sim.schedule(self.config.batch_window_us, self._flush_on_timer)
        yield done

    def _flush_on_timer(self) -> None:
        self._batch_timer_armed = False
        if self.host.alive:
            self._flush()

    def _flush(self) -> None:
        if not self._batch:
            return
        batch, self._batch = self._batch, []
        batch_id = next(self._batch_ids)
        commands = tuple(cmd for cmd, _done in batch)
        seqs = tuple(self._bump_seq(cmd.key) for cmd in commands)
        state = _BatchState(self._make_done(batch), commands, self.index)
        self._inflight[batch_id] = state
        self.stats["batches"] += 1
        message = _PreAccept(self.index, batch_id, commands, seqs)
        size = CTRL_WIRE_BYTES + CMD_WIRE_BYTES * len(commands)
        for peer in self._peers():
            self.messenger.send(self.cluster.replicas[peer].messenger, message, size)
        self._maybe_finish(batch_id)

    def _make_done(self, batch: List[Tuple[_Command, Event]]) -> Event:
        done = Event(self.sim)

        def finish(_event: Event) -> None:
            for command, waiter in batch:
                self._execute(command)
                waiter.try_trigger(None)

        done.add_callback(finish)
        return done

    def _bump_seq(self, key: bytes) -> int:
        seq = self.key_seq.get(key, 0) + 1
        self.key_seq[key] = seq
        return seq

    # ------------------------------------------------------------------
    # Message pump
    # ------------------------------------------------------------------

    def _message_pump(self):
        while True:
            message = yield self.messenger.recv()
            yield self.host.execute(self.config.costs.msg_recv_us)
            if isinstance(message, _PreAccept):
                yield from self._on_preaccept(message)
            elif isinstance(message, _PreAcceptReply):
                self._on_preaccept_reply(message)
            elif isinstance(message, _Accept):
                self._on_accept(message)
            elif isinstance(message, _AcceptReply):
                self._on_accept_reply(message)
            elif isinstance(message, _Commit):
                yield from self._on_commit(message)

    def _on_preaccept(self, msg: _PreAccept):
        yield self.host.execute(self.config.costs.preaccept_us * len(msg.commands))
        deps_changed = False
        new_seqs = []
        for command, seq in zip(msg.commands, msg.seqs):
            local = self.key_seq.get(command.key, 0)
            if local >= seq:
                # We have seen a conflicting command the leader has not.
                deps_changed = True
                seq = local + 1
            self.key_seq[command.key] = seq
            new_seqs.append(seq)
        reply = _PreAcceptReply(self.index, msg.batch_id, deps_changed, tuple(new_seqs))
        self.messenger.send(
            self.cluster.replicas[msg.sender].messenger, reply, CTRL_WIRE_BYTES
        )

    def _on_preaccept_reply(self, msg: _PreAcceptReply) -> None:
        state = self._inflight.get(msg.batch_id)
        if state is None or state.done.settled:
            return
        state.replies.add(msg.sender)
        state.deps_changed = state.deps_changed or msg.deps_changed
        self._maybe_finish(msg.batch_id)

    def _maybe_finish(self, batch_id: int) -> None:
        state = self._inflight.get(batch_id)
        if state is None or state.done.settled:
            return
        if not state.deps_changed and len(state.replies) >= self.config.fast_quorum:
            self.stats["fast_path"] += 1
            if obs_state.REGISTRY is not None:
                obs_state.REGISTRY.counter("epaxos.commits", path="fast").inc()
            self._commit(batch_id, state)
        elif state.deps_changed and len(state.replies) >= self.config.nodes:
            # Slow path: all PreAccept replies in, run the Accept round.
            self.stats["slow_path"] += 1
            if obs_state.REGISTRY is not None:
                obs_state.REGISTRY.counter("epaxos.commits", path="slow").inc()
            self._run_accept(batch_id, state)

    def _run_accept(self, batch_id: int, state: _BatchState) -> None:
        message = _Accept(self.index, batch_id, (), ())
        for peer in self._peers():
            self.messenger.send(
                self.cluster.replicas[peer].messenger, message, CTRL_WIRE_BYTES
            )

    def _on_accept(self, msg: _Accept) -> None:
        reply = _AcceptReply(self.index, msg.batch_id)
        self.messenger.send(
            self.cluster.replicas[msg.sender].messenger, reply, CTRL_WIRE_BYTES
        )

    def _on_accept_reply(self, msg: _AcceptReply) -> None:
        state = self._inflight.get(msg.batch_id)
        if state is None or state.done.settled:
            return
        state.accept_replies.add(msg.sender)
        if len(state.accept_replies) >= self.config.slow_quorum:
            self._commit(msg.batch_id, state)

    def _commit(self, batch_id: int, state: _BatchState) -> None:
        del self._inflight[batch_id]
        state.done.try_trigger(None)
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "epaxos.commit",
                self.sim.now,
                replica=self.index,
                commands=len(state.commands),
            )
        # Async commit notification to peers (off the client's latency path).
        message = _Commit(self.index, batch_id, state.commands)
        size = CTRL_WIRE_BYTES + CMD_WIRE_BYTES * len(state.commands)
        for peer in self._peers():
            self.messenger.send(self.cluster.replicas[peer].messenger, message, size)

    def _on_commit(self, msg: _Commit):
        yield self.host.execute(self.config.costs.execute_us * len(msg.commands))
        for command in msg.commands:
            self._execute(command)

    def _execute(self, command: _Command) -> None:
        if command.op == "put":
            self.store[command.key] = command.value
        elif command.op == "delete":
            self.store.pop(command.key, None)

    def _peers(self) -> List[int]:
        return [i for i in range(self.config.nodes) if i != self.index]


class EPaxosCluster:
    """An EPaxos deployment: 2F+1 equal replicas, all serving clients."""

    kind = "epaxos"
    leader_based = False
    #: An acked write may not survive a tolerated crash: commit
    #: announcements are asynchronous (§6.3.2 caveat), so the chaos runner
    #: downgrades linearizability to a no-phantom-value check under crashes.
    durable_across_crash = False
    ring = None
    memory_nodes = ()

    def __init__(
        self, fabric: Fabric, config: EPaxosConfig = EPaxosConfig(), name: str = "epaxos"
    ):
        self.fabric = fabric
        self.config = config
        self.name = name
        self.replicas = [EPaxosReplica(self, i) for i in range(config.nodes)]
        #: The client-facing, crashable nodes: every replica serves clients.
        self.cpu_nodes = self.replicas

    def start(self) -> None:
        for replica in self.replicas:
            replica.start()

    def is_serving(self) -> bool:
        # A fast-path quorum (F + floor((F+1)/2)) must be up to commit.
        live = sum(1 for r in self.replicas if r.host.alive)
        return live >= self.config.fast_quorum

    def leaders(self) -> List[Tuple[str, int]]:
        return []

    def leader_node(self) -> Optional[EPaxosReplica]:
        """Leaderless: "leader" faults target the lowest live replica
        (the command leader most client traffic lands on)."""
        for replica in self.replicas:
            if replica.host.alive:
                return replica
        return None

    def wait_until_serving(self, timeout_us: Optional[float] = None):
        """Process: poll until a fast quorum is live; returns the lowest
        live replica (at once, without yielding, when all are up)."""
        sim = self.fabric.sim
        deadline = None if timeout_us is None else sim.now + timeout_us
        while not self.is_serving():
            if deadline is not None and sim.now >= deadline:
                raise TimeoutError(f"no EPaxos fast quorum after {timeout_us}us")
            yield sim.timeout(1 * MS)
        return self.leader_node()

    def preload(self, items) -> None:
        """Synchronously pre-populate every replica (§6.2 scaffolding)."""
        for key, value in items:
            key, value = bytes(key), bytes(value)
            for replica in self.replicas:
                replica.store[key] = value
