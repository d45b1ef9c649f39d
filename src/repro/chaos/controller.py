"""The chaos controller: one fault surface over every system under test.

Every cluster class (Sift group, sharded service, Raft-R, EPaxos) says
what it is through the same members — the table "what a system under
test provides" in :mod:`repro.bench.systems` — and the
:class:`ChaosController` reads them directly: it resolves symbolic
targets against ``cpu_nodes`` / ``leader_node()`` at injection time and
applies :class:`~repro.chaos.schedule.FaultAction` records to the
cluster's nodes, the fabric's partition machinery, the per-host NICs,
and the message-chaos interceptor.  Benchmarks, the matrix suite, and
the random explorer all inject through this one path.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.chaos.faults import MessageChaos
from repro.chaos.schedule import FOLLOWER, LEADER, FaultAction
from repro.net.partition import PartitionController

__all__ = ["UnsupportedFault", "ChaosController"]


class UnsupportedFault(Exception):
    """The schedule asked this system for a fault it cannot model."""


class ChaosController:
    """Applies :class:`FaultAction` records to one live cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.fabric = cluster.fabric
        self.partitions = PartitionController(self.fabric)
        self.messages = MessageChaos(self.fabric)
        self.applied: List[Tuple[float, str]] = []

    # -- target resolution -------------------------------------------------------

    def _node(self, target):
        """Resolve a consensus-node target (an index into ``cpu_nodes``,
        or a symbolic role) to the node, at injection time."""
        if target not in (LEADER, FOLLOWER):
            return self.cluster.cpu_nodes[int(target)]
        leader = self.cluster.leader_node()
        if target == LEADER:
            if leader is None:
                raise UnsupportedFault("no live leader to target")
            return leader
        for node in self.cluster.cpu_nodes:  # the first live non-leader
            if node is not leader and node.host.alive:
                return node
        raise UnsupportedFault("no live follower to target")

    def _memory_node(self, index):
        memory_nodes = self.cluster.memory_nodes
        if not memory_nodes:
            raise UnsupportedFault(f"{self.cluster.kind} has no memory nodes")
        return memory_nodes[int(index)]

    def _host_name(self, target) -> str:
        if isinstance(target, str) and target not in (LEADER, FOLLOWER):
            return target
        return self._node(target).host.name

    def _side(self, side) -> List[str]:
        return [self._host_name(member) for member in side]

    def _other_side(self, side: List[str]) -> List[str]:
        """Every host the cluster itself runs on (no clients) not in *side*."""
        cluster = self.cluster
        servers = (*cluster.cpu_nodes, *cluster.memory_nodes)
        return [n.host.name for n in servers if n.host.name not in side]

    # -- application --------------------------------------------------------------

    def apply(self, action: FaultAction) -> None:
        """Inject one action now; records it in :attr:`applied`."""
        handler = getattr(self, f"_do_{action.kind}", None)
        if handler is None:
            raise UnsupportedFault(f"unknown fault kind: {action.kind}")
        handler(*action.args)
        self.applied.append((self.fabric.sim.now, action.label))

    def _do_crash_node(self, target):
        self._node(target).crash()

    def _do_crash_coordinator(self, shard, ring_version):
        """Kill the coordinator owning *shard*'s key range.

        With a ring the kill is ring-version-aware: a fault scheduled
        against a shard name before a split/merge is resolved through
        :meth:`ShardedKvService.resolve_shard`, so it lands on whichever
        group owns the *intended key range* under the current ring.
        Single-group systems ignore the shard name and crash the leader.
        """
        if self.cluster.ring is not None:
            self.cluster.crash_coordinator(shard=shard, ring_version=ring_version)
        else:
            self._node(LEADER).crash()

    def _do_restart_crashed(self):
        """Restart every dead node, CPU nodes before memory nodes."""
        for node in (*self.cluster.cpu_nodes, *self.cluster.memory_nodes):
            if not node.host.alive:
                node.restart()

    def _do_crash_memory_node(self, index):
        self._memory_node(index).crash()

    def _do_restart_memory_node(self, index):
        self._memory_node(index).restart()

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

    def _nic(self, target):
        nic = self.fabric.host(self._host_name(target)).services.get("rnic")
        if nic is None:
            raise UnsupportedFault(f"host {target} has no RDMA NIC")
        return nic

    def _do_fail_nic(self, target):
        self._nic(target).fail_queues()

    def _do_restore_nic(self, target):
        self._nic(target).restore_queues()

    def _do_stall_cpu(self, target, duration_us, cores):
        host = self.fabric.host(self._host_name(target))
        for _core in range(int(cores)):
            # Occupy one core with an un-preemptable burst: every queued
            # protocol task behind it waits, exactly like a GC pause.
            host.cpu.execute(duration_us)

    def _do_probe(self, label, fn):
        fn(self.cluster)

    def heal_everything(self) -> None:
        """Clear partitions and message faults (crashed nodes stay down)."""
        self.partitions.heal()
        self.messages.clear()
