"""Shared backup CPU nodes across groups (§5.2).

Because CPU nodes hold only soft state, a spare CPU node is not tied to
any particular Sift group: a pool of ``B`` backups can watch ``G`` groups
and promote itself into whichever group loses its coordinator, replacing
``(F + 1) x G`` provisioned CPU nodes with ``G + B``.

The pool here is the *live* implementation used by tests and examples.
A watchdog host runs one monitor per group; each monitor performs the
same one-sided heartbeat *reads* of the group's admin words a follower
would ("the communication overhead of a backup CPU node being
responsible for multiple groups is negligible since heartbeats are
reads that rarely occur more frequently than every few milliseconds").
When a group's words stop changing on a quorum of its memory nodes, an
idle backup converts itself into a full CpuNode for that group and
campaigns.  The pool then provisions a replacement VM after
``provisioning_delay_us`` (100 s in the paper, the average EC2 Linux VM
start-up [18]).  The trace-driven *capacity analysis* behind Figure 8
lives separately in :mod:`repro.cluster.backups`.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, NamedTuple, Optional

from repro.core import rules
from repro.core.cpu_node import CpuNode, read_admin_words
from repro.core.group import SiftGroup
from repro.net.fabric import Fabric
from repro.net.host import Host
from repro.obs import state as obs_state
from repro.obs.stats import StatsSnapshot
from repro.rdma.nic import Rnic
from repro.rdma.qp import QpState, QueuePair
from repro.sim.engine import Event
from repro.sim.units import SEC
from repro.storage.admin import AdminWord
from repro.storage.memory_node import ADMIN_REGION

__all__ = ["BackupPool", "Promotion"]


class Promotion(NamedTuple):
    """One spare handed to a group (times in simulated microseconds).

    *wait_us* is the additional recovery time charged to the fault by
    the pool: zero when a spare was idle, the time spent queued for the
    next provisioned VM otherwise.  It is measured from *request_us*
    (the moment the pool decided the group was dead), so it composes
    with — but does not include — failure-detection latency, and is
    therefore directly comparable to the
    :class:`repro.cluster.backups.PoolAccountant` trace model.
    """

    request_us: float
    promoted_us: float
    group: str
    host: str
    wait_us: float

_BACKUP_NODE_IDS = count(100)  # distinct from the groups' own 1..Fc+1 ids


class _GroupWatcher:
    """Follower-style heartbeat reader for one group, on the watchdog."""

    def __init__(self, host: Host, nic: Rnic, group: SiftGroup):
        self.host = host
        self.nic = nic
        self.group = group
        self._qps: Dict[int, QueuePair] = {}
        self._last_words: Dict[int, AdminWord] = {}

    def poll(self):
        """Process: (re)connect one node at a time, then one heartbeat-read
        round; returns #nodes with progress."""
        for index, node in enumerate(self.group.memory_nodes):
            qp = self._qps.get(index)
            if qp is not None and qp.state is QpState.CONNECTED:
                continue
            if not node.alive:
                continue
            fresh = QueuePair(self.nic, node.listener, name=f"watch-{self.group.name}-{index}")
            try:
                yield self.host.spawn(fresh.connect([ADMIN_REGION]))
            except Exception:
                continue
            self._qps[index] = fresh
        return (yield from read_admin_words(self._qps, self._last_words))


class BackupPool:
    """A pool of spare CPU nodes monitoring many groups."""

    def __init__(
        self,
        fabric: Fabric,
        groups: List[SiftGroup],
        size: int,
        provisioning_delay_us: float = 100 * SEC,
        cores: int = 10,
        name: str = "backup",
    ):
        self.fabric = fabric
        self.groups = list(groups)
        self.capacity = size
        self.provisioning_delay_us = provisioning_delay_us
        self.cores = cores
        self.name = name
        self.sim = fabric.sim
        self._spares: List[str] = []
        self._waiters: List[Event] = []  # FIFO queue for the next ready VM
        self._next_host = count()
        self.promotions = 0
        self.provisioned = 0
        self.waits = 0
        self.recovery_wait_us_total = 0.0
        self.promotion_log: List[Promotion] = []
        # Every promotion request instant, recorded *at request time* —
        # a request still waiting for a VM (pool exhausted) must be
        # visible to the autoscaler even though it has no Promotion yet.
        self.request_log: List[float] = []
        self.running = False
        self._watchdog: Optional[Host] = None
        self._watchdog_nic: Optional[Rnic] = None
        # Capacity cost integral (VM-microseconds): the fleet the pool
        # pays for is `capacity` VMs at any instant — a consumed spare's
        # replacement is already provisioning — so cost accrues at
        # `capacity` per microsecond between resizes.
        self._cost_vm_us = 0.0
        self._cost_marker_us = self.sim.now
        self._shrink_debt = 0  # provisions to cancel on arrival after a shrink
        self._retired: set = set()  # group names whose monitors should exit
        self.resizes = 0
        for _ in range(size):
            self._spares.append(self._new_spare())
        self._publish_occupancy()

    def _new_spare(self) -> str:
        host_name = f"{self.name}-{next(self._next_host)}"
        self.fabric.add_host(host_name, cores=self.cores)
        return host_name

    def _publish_occupancy(self) -> None:
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.gauge("backup_pool.idle", pool=self.name).set(
                len(self._spares)
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin monitoring every group from a watchdog host."""
        self.running = True
        self._watchdog = self.fabric.add_host(f"{self.name}-watchdog", cores=2)
        self._watchdog_nic = Rnic(self._watchdog, self.fabric)
        for group in self.groups:
            self._spawn_monitor(group)

    def _spawn_monitor(self, group: SiftGroup) -> None:
        watcher = _GroupWatcher(self._watchdog, self._watchdog_nic, group)
        self._watchdog.spawn(self._monitor(group, watcher), name=f"monitor-{group.name}")

    def watch(self, group: SiftGroup) -> None:
        """Begin monitoring a group added after :meth:`start` (a split)."""
        self._retired.discard(group.name)
        if any(existing is group for existing in self.groups):
            return
        self.groups.append(group)
        if self.running:
            self._spawn_monitor(group)

    def unwatch(self, group: SiftGroup) -> None:
        """Stop monitoring a retired group (its monitor exits next round)."""
        self._retired.add(group.name)
        self.groups = [g for g in self.groups if g.name != group.name]

    def stop(self) -> None:
        """Stop promoting (running monitors drain on their next check)."""
        self.running = False
        # Release queued promotions so their processes terminate.
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.try_trigger(None)

    @property
    def idle_backups(self) -> int:
        """Spare hosts ready to take over a group right now."""
        return len(self._spares)

    def recovery_wait_us_per_fault(self) -> float:
        """Mean additional recovery time per promotion so far."""
        return self.recovery_wait_us_total / self.promotions if self.promotions else 0.0

    # ------------------------------------------------------------------
    # Autoscaling (repro.control)
    # ------------------------------------------------------------------

    def _accrue_cost(self) -> None:
        now = self.sim.now
        self._cost_vm_us += (now - self._cost_marker_us) * self.capacity
        self._cost_marker_us = now

    def vm_seconds(self) -> float:
        """Capacity time-integral so far: the VM-seconds the pool paid for.

        A statically provisioned pool of B spares over a run of T
        seconds costs ``B x T``; an autoscaled pool costs the integral
        of its capacity curve — the figHotspot cost axis.
        """
        return (self._cost_vm_us + (self.sim.now - self._cost_marker_us) * self.capacity) / 1e6

    def resize(self, capacity: int) -> int:
        """Set the pool's target capacity; returns the previous one.

        Growing starts provisioning the extra VMs now (idle after
        ``provisioning_delay_us``).  Shrinking decommissions idle spares
        immediately and cancels in-flight provisions on arrival; queued
        promotions always beat a pending shrink.
        """
        if capacity < 0:
            raise ValueError(f"pool capacity must be non-negative, got {capacity}")
        self._accrue_cost()
        previous = self.capacity
        self.capacity = capacity
        if capacity > previous:
            grow = capacity - previous
            recovered = min(grow, self._shrink_debt)
            self._shrink_debt -= recovered
            for _ in range(grow - recovered):
                self.sim.spawn(self._provision(), name="provision-backup")
        elif capacity < previous:
            drop = previous - capacity
            while drop and self._spares:
                self._spares.pop()
                drop -= 1
            self._shrink_debt += drop
        if capacity != previous:
            self.resizes += 1
            if obs_state.TRACER is not None:
                obs_state.TRACER.instant(
                    "backup_pool.resize",
                    self.sim.now,
                    pool=self.name,
                    capacity=capacity,
                    previous=previous,
                )
        self._publish_occupancy()
        return previous

    def snapshot(self) -> StatsSnapshot:
        """The pool's :class:`~repro.obs.stats.StatsSnapshot`."""
        return StatsSnapshot(
            kind="backup_pool",
            name=self.name,
            counters={
                "promotions": float(self.promotions),
                "provisioned": float(self.provisioned),
                "waits": float(self.waits),
                "resizes": float(self.resizes),
                "recovery_wait_us_total": self.recovery_wait_us_total,
            },
            gauges={
                "idle": float(len(self._spares)),
                "capacity": float(self.capacity),
                "queued": float(len(self._waiters)),
                "vm_seconds": self.vm_seconds(),
            },
        )

    # ------------------------------------------------------------------
    # Monitoring and promotion
    # ------------------------------------------------------------------

    def _monitor(self, group: SiftGroup, watcher: _GroupWatcher):
        config = group.config
        stale = 0
        while self.running:
            yield self.sim.timeout(config.heartbeat_read_interval_us)
            if group.name in self._retired:
                return
            changed = yield from watcher.poll()
            stale = rules.stale_rounds(stale, changed, config.quorum)
            if stale <= config.missed_heartbeats_allowed:
                continue
            # A group that still has its own CPU node(s) is mid-election or
            # briefly stalled, not abandoned: its election machinery acts.
            if not any(cpu.host.alive for cpu in group.cpu_nodes):
                yield from self._promote(group)
            stale = 0

    def _promote(self, group: SiftGroup):
        """Process: hand an idle spare to *group* (waiting for one if needed).

        Accounting mirrors :class:`repro.cluster.backups.PoolAccountant`
        exactly: an idle spare costs nothing and its replacement starts
        provisioning immediately; an empty pool queues the group for the
        next VM to come ready (FIFO — the heap model's earliest-ready
        VM) and charges the queueing time; a pool built with ``size=0``
        makes the group provision its own VM, charged in full.
        """
        request_us = self.sim.now
        self.request_log.append(request_us)
        if self._spares:
            host_name = self._spares.pop()
            self._publish_occupancy()
            # The consumed spare's replacement starts provisioning now.
            self.sim.spawn(self._provision(), name="provision-backup")
        elif self.capacity == 0:
            # No pool at all: the group provisions its own VM.
            yield self.sim.timeout(self.provisioning_delay_us)
            if not self.running:
                return
            host_name = self._new_spare()
        else:
            waiter = Event(self.sim)
            self._waiters.append(waiter)
            host_name = yield waiter
            if host_name is None or not self.running:
                return  # stop() drained the queue
            # Hand-over time: the replacement provisions from here.
            self.sim.spawn(self._provision(), name="provision-backup")
        wait_us = self.sim.now - request_us
        backup = CpuNode(
            self.fabric,
            f"{host_name}:{group.name}",
            node_id=next(_BACKUP_NODE_IDS),
            config=group.config,
            memory_nodes=group.memory_nodes,
            app_factory=group.app_factory,
            host=self.fabric.host(host_name),
        )
        backup.start()
        group.adopt_cpu_node(backup)
        self.promotions += 1
        if wait_us > 0:
            self.waits += 1
        self.recovery_wait_us_total += wait_us
        self.promotion_log.append(
            Promotion(request_us, self.sim.now, group.name, host_name, wait_us)
        )
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter(
                "backup_pool.promotions", pool=self.name, group=group.name
            ).inc()
            obs_state.REGISTRY.histogram("backup_pool.wait_us", pool=self.name).observe(
                wait_us
            )

    def _provision(self):
        yield self.sim.timeout(self.provisioning_delay_us)
        self.provisioned += 1
        if self._waiters:
            # Hand the fresh VM straight to the longest-queued group so
            # its measured wait ends exactly at the VM's ready time.
            self._waiters.pop(0).try_trigger(self._new_spare())
        elif self._shrink_debt > 0:
            # A shrink landed while this VM was provisioning: release it
            # instead of parking it (queued promotions above beat this).
            self._shrink_debt -= 1
        else:
            self._spares.append(self._new_spare())
            self._publish_occupancy()
