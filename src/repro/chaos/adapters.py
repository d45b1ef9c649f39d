"""The cluster adapter: one fault surface over every system under test.

The chaos layer never touches protocol internals directly.  Every
cluster class (Sift group, sharded service, Raft-R, EPaxos) says what
it is through the same members — the table "what a system under test
provides" in :mod:`repro.bench.systems` — and the one
:class:`ClusterAdapter` turns those into crash/restart by index or
symbolic role, who leads (and at what term), and readiness; a
:class:`ChaosController` then applies
:class:`~repro.chaos.schedule.FaultAction` records to the adapter, the
fabric's partition machinery, the per-host NICs, and the message-chaos
interceptor.  Benchmarks, the matrix suite, and the random explorer all
inject through this one path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.chaos.faults import MessageChaos
from repro.chaos.schedule import FOLLOWER, LEADER, FaultAction
from repro.net.partition import PartitionController
from repro.sim.units import MS

__all__ = ["UnsupportedFault", "ClusterAdapter", "ChaosController", "adapter_for"]


class UnsupportedFault(Exception):
    """The schedule asked this system for a fault it cannot model."""


class ClusterAdapter:
    """Uniform fault/observation surface over one running cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.fabric = cluster.fabric
        self.sim = cluster.fabric.sim
        self.kind: str = cluster.kind
        self.leader_based: bool = cluster.leader_based
        self.durable_across_crash: bool = cluster.durable_across_crash

    # -- topology ---------------------------------------------------------------

    def nodes(self) -> List:
        """The consensus (client-facing) nodes, crashable by index."""
        return self.cluster.cpu_nodes

    def node_host(self, index: int):
        return self.nodes()[index].host

    def server_host_names(self) -> List[str]:
        """Every host the cluster itself runs on (no clients)."""
        return [node.host.name for node in self.nodes()] + [
            mem.host.name for mem in self.cluster.memory_nodes
        ]

    # -- observation ------------------------------------------------------------

    def leaders(self) -> List[Tuple[str, int]]:
        """``(host_name, term)`` for every node that believes it leads."""
        return self.cluster.leaders()

    def leader_index(self) -> Optional[int]:
        leader = self.cluster.leader_node()
        return None if leader is None else self.nodes().index(leader)

    def follower_index(self) -> Optional[int]:
        """The first live node that is not the leader."""
        leader = self.leader_index()
        for index, node in enumerate(self.nodes()):
            if index != leader and node.host.alive:
                return index
        return None

    def is_serving(self) -> bool:
        return self.cluster.is_serving()

    def wait_ready(self, timeout_us: Optional[float] = None):
        """Process: poll until the cluster serves requests."""
        deadline = None if timeout_us is None else self.sim.now + timeout_us
        while not self.is_serving():
            if deadline is not None and self.sim.now >= deadline:
                raise TimeoutError(
                    f"{self.kind} cluster not serving after {timeout_us}us"
                )
            yield self.sim.timeout(1 * MS)

    # -- faults -----------------------------------------------------------------

    def crash_node(self, index: int) -> None:
        self.nodes()[index].crash()

    def restart_node(self, index: int) -> None:
        self.nodes()[index].restart()

    def restart_crashed(self) -> None:
        """Restart every dead node, CPU nodes before memory nodes."""
        for node in (*self.nodes(), *self.cluster.memory_nodes):
            if not node.host.alive:
                node.restart()

    def crash_memory_node(self, index: int) -> None:
        self._memory_node(index).crash()

    def restart_memory_node(self, index: int) -> None:
        self._memory_node(index).restart()

    def _memory_node(self, index: int):
        memory_nodes = self.cluster.memory_nodes
        if not memory_nodes:
            raise UnsupportedFault(f"{self.kind} has no memory nodes")
        return memory_nodes[index]

    def crash_coordinator(self, shard=None, ring_version=None) -> None:
        """Kill the coordinator owning *shard*'s key range.

        Single-group systems ignore the shard name and crash the
        leader.  With a ring the kill is ring-version-aware: a fault
        scheduled against a shard name before a split/merge is resolved
        through :meth:`ShardedKvService.resolve_shard`, so it lands on
        whichever group owns the *intended key range* under the current
        ring — deterministically, whatever topology changes happened
        since the schedule was written.
        """
        if self.cluster.ring is not None:
            self.cluster.crash_coordinator(shard=shard, ring_version=ring_version)
            return
        index = self.leader_index()
        if index is None:
            raise UnsupportedFault("no live leader to target")
        self.crash_node(index)


def adapter_for(cluster) -> ClusterAdapter:
    """The adapter for a built cluster; ``TypeError`` for anything that
    is not one (the single "is this a cluster at all" guard)."""
    if not hasattr(cluster, "leader_node"):
        raise TypeError(f"no chaos adapter for {type(cluster).__name__}")
    return ClusterAdapter(cluster)


class ChaosController:
    """Applies :class:`FaultAction` records to one live cluster."""

    def __init__(self, adapter: ClusterAdapter):
        self.adapter = adapter
        self.fabric = adapter.fabric
        self.partitions = PartitionController(self.fabric)
        self.messages = MessageChaos(self.fabric)
        self.applied: List[Tuple[float, str]] = []

    @classmethod
    def for_cluster(cls, cluster) -> "ChaosController":
        return cls(adapter_for(cluster))

    # -- target resolution -------------------------------------------------------

    def _index(self, target) -> int:
        """Resolve a node target to an index, at injection time."""
        if target == LEADER:
            index = self.adapter.leader_index()
            if index is None:
                raise UnsupportedFault("no live leader to target")
            return index
        if target == FOLLOWER:
            index = self.adapter.follower_index()
            if index is None:
                raise UnsupportedFault("no live follower to target")
            return index
        return int(target)

    def _host_name(self, target) -> str:
        if isinstance(target, str) and target not in (LEADER, FOLLOWER):
            return target
        if isinstance(target, str):
            return self.adapter.node_host(self._index(target)).name
        return self.adapter.node_host(int(target)).name

    def _side(self, side) -> List[str]:
        return [self._host_name(member) for member in side]

    def _other_side(self, side: List[str]) -> List[str]:
        return [name for name in self.adapter.server_host_names() if name not in side]

    # -- application --------------------------------------------------------------

    def apply(self, action: FaultAction) -> None:
        """Inject one action now; records it in :attr:`applied`."""
        handler = getattr(self, f"_do_{action.kind}", None)
        if handler is None:
            raise UnsupportedFault(f"unknown fault kind: {action.kind}")
        handler(*action.args)
        self.applied.append((self.adapter.sim.now, action.label))

    def _do_crash_node(self, target):
        self.adapter.crash_node(self._index(target))

    def _do_crash_coordinator(self, shard, ring_version):
        self.adapter.crash_coordinator(shard=shard, ring_version=ring_version)

    def _do_restart_node(self, index):
        self.adapter.restart_node(int(index))

    def _do_restart_crashed(self):
        self.adapter.restart_crashed()

    def _do_crash_memory_node(self, index):
        self.adapter.crash_memory_node(int(index))

    def _do_restart_memory_node(self, index):
        self.adapter.restart_memory_node(int(index))

    def _do_partition(self, side_a, side_b):
        a = self._side(side_a)
        b = self._side(side_b) if side_b else self._other_side(a)
        self.partitions.split(a, b)

    def _do_partition_oneway(self, src, dsts):
        sources = self._side(src if isinstance(src, tuple) else (src,))
        destinations = self._side(dsts) if dsts else self._other_side(sources)
        self.partitions.split_oneway(sources, destinations)

    def _do_isolate(self, target):
        self.partitions.isolate(self._host_name(target))

    def _do_heal(self):
        self.partitions.heal()

    def _do_drop_messages(self, fraction, streams):
        self.messages.set_drop(fraction, streams)

    def _do_delay_messages(self, extra_us, fraction, streams):
        self.messages.set_delay(extra_us, fraction, streams)

    def _do_duplicate_messages(self, fraction, streams):
        self.messages.set_duplicate(fraction, streams)

    def _do_clear_message_faults(self):
        self.messages.clear()

    def _do_fail_nic(self, target):
        nic = self.fabric.host(self._host_name(target)).services.get("rnic")
        if nic is None:
            raise UnsupportedFault(f"host {target} has no RDMA NIC")
        nic.fail_queues()

    def _do_restore_nic(self, target):
        nic = self.fabric.host(self._host_name(target)).services.get("rnic")
        if nic is None:
            raise UnsupportedFault(f"host {target} has no RDMA NIC")
        nic.restore_queues()

    def _do_stall_cpu(self, target, duration_us, cores):
        host = self.fabric.host(self._host_name(target))
        for _core in range(int(cores)):
            # Occupy one core with an un-preemptable burst: every queued
            # protocol task behind it waits, exactly like a GC pause.
            host.cpu.execute(duration_us)

    def _do_probe(self, label, fn):
        fn(self.adapter.cluster)

    def heal_everything(self) -> None:
        """Clear partitions and message faults (crashed nodes stay down)."""
        self.partitions.heal()
        self.messages.clear()
