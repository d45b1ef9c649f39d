"""CPU nodes: follower / candidate / coordinator (§3.1–§3.2).

CPU nodes hold only soft state and never talk to each other; everything
flows through one-sided reads and CAS writes against the memory nodes'
administrative words.  Every decision is a rule in :mod:`repro.core.rules`;
this module does the I/O.

* **Followers** read the admin words every ``heartbeat_read_interval``
  and become candidates once the lease expires (``stale_rounds``).
* **Candidates** CAS ``(next_term, node_id, timestamp)`` onto every
  admin word, expecting the values their last reads returned — "this
  process closely resembles the locking of spinlocks" (§3.2) — and win,
  lose, or back off and retry as ``campaign_verdict`` says (at the same
  term when the round went unanswered).
* **The coordinator** renews its lease with the same CAS round every
  ``heartbeat_write_interval`` and steps down once ``lease_renewed``
  says a successor holds the words.  On winning, it connects to the
  exclusive replicated regions (revoking its predecessor), runs log
  recovery, starts the background apply and memory-node-recovery
  machinery, and hands the replicated memory to the application layer.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.core import rules
from repro.core.config import SiftConfig
from repro.core.membership import Membership
from repro.core.recovery import MemoryNodeRecoveryManager, recover_log
from repro.core.replicated_memory import ReplicatedMemory
from repro.net.fabric import Fabric
from repro.net.host import Host
from repro.rdma.errors import RdmaError
from repro.rdma.nic import Rnic
from repro.rdma.qp import QpState, QueuePair
from repro.sim.engine import Event, ProcessKilled
from repro.storage.admin import TS_MAX, AdminWord
from repro.storage.memory_node import ADMIN_REGION, ADMIN_WORD_OFFSET, MemoryNode

__all__ = ["CpuNode", "Role", "read_admin_words"]


class Role(Enum):
    """Paper Figure 2's three states."""

    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    COORDINATOR = "coordinator"


class CpuNode:
    """One CPU node of a Sift group.

    *app_factory*, if given, is called as ``app_factory(cpu_node, repmem)``
    when this node wins an election and must return an object with
    ``start()`` (a process generator run before serving) and ``stop()``
    (synchronous teardown); the KV server implements this contract.
    """

    def __init__(
        self,
        fabric: Fabric,
        name: str,
        node_id: int,
        config: SiftConfig,
        memory_nodes: List[MemoryNode],
        app_factory: Optional[Callable] = None,
        cores: Optional[int] = None,
        host: Optional[Host] = None,
    ):
        if node_id < 1:
            raise ValueError("node_id must be >= 1 (0 means 'no coordinator')")
        config.validate()
        self.fabric = fabric
        self.name = name
        self.node_id = node_id
        self.config = config
        self.memory_nodes = memory_nodes
        self.app_factory = app_factory
        # A shared backup node re-uses its already-provisioned host (§5.2).
        self.host: Host = host or fabric.add_host(
            name, cores=cores or config.cpu_node_cores
        )
        self.nic = Rnic(self.host, fabric, timeout_us=config.verb_timeout_us)
        self.sim = self.host.sim
        self._rng = fabric.rng.stream(f"election:{name}")

        self.role = Role.FOLLOWER
        self.term = 0
        self.timestamp = 0
        self.repmem: Optional[ReplicatedMemory] = None
        self.recovery_manager: Optional[MemoryNodeRecoveryManager] = None
        self.app = None
        self._admin_qps: Dict[int, QueuePair] = {}
        self._last_words: Dict[int, AdminWord] = {}
        self._deposed: Optional[Event] = None
        self._main_proc = None
        self.serving = False
        self.stats = {"elections_won": 0, "elections_lost": 0, "stepdowns": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin participating (spawns the state-machine process)."""
        self._main_proc = self.host.spawn(self._main(), name="cpu-node")

    def crash(self) -> None:
        """Fail-stop this CPU node."""
        self.host.crash()
        self.role = Role.FOLLOWER
        self.repmem = None
        self.recovery_manager = None
        self.app = None
        self._admin_qps.clear()

    def restart(self) -> None:
        """Restart with empty soft state (§3.1: CPU nodes are stateless)."""
        self.host.restart()
        self.role = Role.FOLLOWER
        self.term = 0
        self.timestamp = 0
        self._last_words.clear()
        self._admin_qps.clear()
        self.start()

    @property
    def is_coordinator(self) -> bool:
        """Whether this node currently leads the group."""
        return self.role is Role.COORDINATOR

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _main(self):
        while True:
            yield from self._follow()
            self.role = Role.CANDIDATE
            won = yield from self._campaign()
            if won:
                self.role = Role.COORDINATOR
                self.stats["elections_won"] += 1
                yield from self._lead()
                self.stats["stepdowns"] += 1
            else:
                self.stats["elections_lost"] += 1
            self.role = Role.FOLLOWER

    # ------------------------------------------------------------------
    # Follower: heartbeat reads
    # ------------------------------------------------------------------

    def _follow(self):
        """Run heartbeat reads until the election timeout fires (§3.2)."""
        stale = 0
        # Randomize the first read so co-started followers don't stampede.
        yield self.sim.timeout(
            self._rng.uniform(0.5, 1.5) * self.config.heartbeat_read_interval_us
        )
        while True:
            yield from self._ensure_admin_qps()
            changed = yield from read_admin_words(self._admin_qps, self._last_words)
            stale = rules.stale_rounds(stale, changed, self.config.quorum)
            if stale > self.config.missed_heartbeats_allowed:
                return
            yield self.sim.timeout(self.config.heartbeat_read_interval_us)

    # ------------------------------------------------------------------
    # Candidate: CAS election
    # ------------------------------------------------------------------

    def _campaign(self):
        """Process: run election rounds; True if we won, False if another
        candidate's victory (or a live coordinator) was observed."""
        verdict = rules.RETRY
        while True:
            if verdict == rules.RETRY:  # an unanswered round keeps its term
                self.term = rules.next_term(self.term, self._last_words.values())
            claimed, seen = yield from self._cas_round()
            verdict = rules.campaign_verdict(self.term, claimed, seen, self.config.quorum)
            if verdict in (rules.WON, rules.LOST):
                return verdict == rules.WON
            backoff = (self.config.election_backoff_min_us, self.config.election_backoff_max_us)
            yield self.sim.timeout(self._rng.uniform(*backoff))

    def _cas_round(self):
        """Process: CAS ``(term, node_id, next timestamp)`` onto every
        reachable admin word, expecting the word last seen there (§3.2).
        Returns how many CASes succeeded and the words the others saw."""
        self.timestamp = (self.timestamp + 1) & TS_MAX
        claim = AdminWord(self.term, self.node_id, self.timestamp)
        yield from self._ensure_admin_qps()
        events = {}
        for n, qp in self._admin_qps.items():
            expected = self._last_words.get(n, AdminWord(0, 0, 0))
            events[n] = qp.cas(ADMIN_REGION, ADMIN_WORD_OFFSET, expected.pack(), claim.pack())
        claimed, seen = 0, []
        for n, event in events.items():
            expected = self._last_words.get(n, AdminWord(0, 0, 0))
            try:
                old = AdminWord.unpack((yield event))
            except RdmaError:
                _drop_qp(self._admin_qps, n)
                continue
            if old == expected:
                claimed += 1
                self._last_words[n] = claim
            else:
                self._last_words[n] = old
                seen.append(old)
        return claimed, seen

    # ------------------------------------------------------------------
    # Coordinator: serve until deposed
    # ------------------------------------------------------------------

    def _lead(self):
        deposed = Event(self.sim)
        self._deposed = deposed
        repmem = ReplicatedMemory(self.host, self.nic, self.config, self.memory_nodes)
        repmem.term = self.term
        repmem.on_deposed = lambda: deposed.try_trigger(None)
        manager = MemoryNodeRecoveryManager(repmem)
        self.repmem = repmem
        self.recovery_manager = manager
        # The lease begins the moment the election is won: heartbeats must
        # renew *during* log recovery (which can far exceed the election
        # timeout on large stores) or the followers would depose every
        # recovering coordinator and the group would thrash forever.
        self.host.spawn(self._heartbeat_writer(deposed), name="heartbeat")
        try:
            try:
                yield from repmem.connect()
                result = yield from recover_log(repmem)
                repmem.activate(result.live)
                # Drop connections to nodes we will not serve from; the
                # recovery manager re-establishes them with a fresh copy.
                for n in list(repmem.qps):
                    if n not in result.live:
                        repmem.qps.pop(n).close()
                        repmem.states[n] = "dead"
                # Re-log the membership so the next recovery finds it in
                # the WAL window even if older entries have wrapped.
                yield from repmem.commit_membership(
                    lambda m: Membership(m.epoch + 1, m.members)
                )
                manager.start()
                if self.app_factory is not None:
                    # Loading structures and replaying the WAL can lose
                    # the race like any verb above: step down, don't die.
                    self.app = self.app_factory(self, repmem)
                    yield from self.app.start()
            except ProcessKilled:
                raise
            except Exception:
                return  # lost the race (revoked / no quorum); step down
            self.serving = True
            yield deposed
        finally:
            self.serving = False
            deposed.try_trigger(None)  # stops the heartbeat writer
            manager.stop()
            if self.app is not None:
                self.app.stop()
                self.app = None
            repmem.shutdown()
            self.repmem = None
            self.recovery_manager = None
            self._deposed = None

    def _heartbeat_writer(self, deposed: Event):
        """Renew the lease by CAS on every admin word (§3.2)."""
        while not deposed.settled:
            claimed, _seen = yield from self._cas_round()
            if not rules.lease_renewed(claimed, self.config.quorum):
                deposed.try_trigger(None)
                return
            yield self.sim.timeout(self.config.heartbeat_write_interval_us)

    # ------------------------------------------------------------------
    # Admin connections
    # ------------------------------------------------------------------

    def _ensure_admin_qps(self):
        """Process: (re)connect admin QPs to every reachable memory node."""
        attempts = []
        for n, node in enumerate(self.memory_nodes):
            qp = self._admin_qps.get(n)
            if qp is not None and qp.state is QpState.CONNECTED:
                continue
            if not node.alive:
                continue
            if not self.fabric.reachable(self.host.name, node.name):
                continue
            fresh = QueuePair(self.nic, node.listener, name=f"admin-{self.name}-{n}")
            attempts.append((n, fresh, self.host.fork(fresh.connect([ADMIN_REGION]))))
        for n, qp, proc in attempts:
            try:
                yield proc
            except Exception:
                continue
            self._admin_qps[n] = qp

    def __repr__(self) -> str:
        return f"<CpuNode {self.name} {self.role.value} term={self.term}>"


def read_admin_words(qps: Dict[int, QueuePair], last_words: Dict[int, AdminWord]):
    """Process: one heartbeat-read round over *qps* (§3.2); returns how
    many admin words differ from *last_words*, which it updates.  A failed
    read closes and drops that node's queue pair."""
    events = {n: qp.read_word(ADMIN_REGION, ADMIN_WORD_OFFSET) for n, qp in qps.items()}
    changed = 0
    for n, event in events.items():
        try:
            word = AdminWord.unpack((yield event))
        except RdmaError:
            _drop_qp(qps, n)
            continue
        if last_words.get(n) != word:
            changed += 1
        last_words[n] = word
    return changed


def _drop_qp(qps: Dict[int, QueuePair], n: int) -> None:
    qp = qps.pop(n, None)
    if qp is not None:
        qp.close()
