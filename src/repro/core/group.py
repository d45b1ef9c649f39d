"""Group deployment wiring and fault injection.

A :class:`SiftGroup` builds the full topology of one consensus group —
``2Fm + 1`` memory nodes and ``Fc + 1`` CPU nodes on a shared fabric —
starts the election machinery, and exposes the handles experiments need:
who currently coordinates, crash/restart of either node type, and a
"wait until the group serves requests" helper.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.config import SiftConfig
from repro.core.cpu_node import CpuNode
from repro.core.errors import GroupUnavailable
from repro.net.fabric import Fabric
from repro.obs import state as obs_state
from repro.sim.units import MS
from repro.storage.memory_node import MemoryNode

__all__ = ["SiftGroup"]


class SiftGroup:
    """One Sift consensus group: nodes, wiring, and fault injection.

    *persistent_nodes* selects memory nodes provisioned with persistent
    memory (§3.5): their regions survive a crash+restart, enabling the
    paper's mixed deployments — "a majority of memory nodes being
    provisioned with volatile memory, while the remainder are given
    persistent memory ... a lower-cost deployment with tunable amounts
    of data loss" (or, majority-persistent, a group that survives a full
    power cycle).
    """

    kind = "sift"
    leader_based = True
    durable_across_crash = True
    ring = None

    def __init__(
        self,
        fabric: Fabric,
        config: SiftConfig,
        name: str = "sift",
        app_factory: Optional[Callable] = None,
        persistent_nodes: Optional[Iterable[int]] = None,
    ):
        config.validate()
        self.fabric = fabric
        self.config = config
        self.name = name
        self.app_factory = app_factory
        self.persistent_nodes = frozenset(persistent_nodes or ())
        node_config = config.memory_node_config()
        self.memory_nodes: List[MemoryNode] = [
            MemoryNode(
                fabric,
                f"{name}-mem{i}",
                i,
                config=(
                    replace(node_config, persistent=True)
                    if i in self.persistent_nodes
                    else node_config
                ),
                cores=config.memory_node_cores,
            )
            for i in range(config.memory_node_count)
        ]
        self.cpu_nodes: List[CpuNode] = [
            CpuNode(
                fabric,
                f"{name}-cpu{i}",
                node_id=i + 1,
                config=config,
                memory_nodes=self.memory_nodes,
                app_factory=app_factory,
            )
            for i in range(config.cpu_node_count)
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every CPU node; an election follows within the timeout."""
        for cpu_node in self.cpu_nodes:
            cpu_node.start()

    def coordinator(self) -> Optional[CpuNode]:
        """The CPU node currently in the coordinator role, if any."""
        for cpu_node in self.cpu_nodes:
            if cpu_node.is_coordinator:
                return cpu_node
        return None

    def serving_coordinator(self) -> Optional[CpuNode]:
        """The coordinator once it has finished recovery and serves."""
        coordinator = self.coordinator()
        if coordinator is not None and coordinator.serving:
            return coordinator
        return None

    def is_serving(self) -> bool:
        return self.serving_coordinator() is not None

    def leaders(self) -> List[Tuple[str, int]]:
        """``(host_name, term)`` for every CPU node that believes it leads."""
        return [
            (node.host.name, node.term)
            for node in self.cpu_nodes
            if node.is_coordinator and node.host.alive
        ]

    def leader_node(self) -> Optional[CpuNode]:
        """The first live CPU node in the coordinator role (serving or not)."""
        for node in self.cpu_nodes:
            if node.is_coordinator and node.host.alive:
                return node
        return None

    def preload(self, items) -> None:
        """Synchronous §6.2 pre-population through the serving coordinator."""
        coordinator = self.serving_coordinator()
        if coordinator is None:
            raise RuntimeError(f"preload requires {self.name} to be serving")
        coordinator.app.preload(items)

    def wait_until_serving(self, timeout_us: Optional[float] = None):
        """Process: poll until a coordinator is serving; returns it."""
        deadline = None if timeout_us is None else self.fabric.sim.now + timeout_us
        while True:
            coordinator = self.serving_coordinator()
            if coordinator is not None:
                if obs_state.TRACER is not None:
                    obs_state.TRACER.instant(
                        "group.serving",
                        self.fabric.sim.now,
                        group=self.name,
                        coordinator=coordinator.host.name,
                    )
                return coordinator
            if deadline is not None and self.fabric.sim.now >= deadline:
                raise GroupUnavailable(
                    f"group {self.name} has no serving coordinator after "
                    f"{timeout_us}us"
                )
            yield self.fabric.sim.timeout(1 * MS)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def adopt_cpu_node(self, cpu_node: CpuNode) -> CpuNode:
        """Admit an externally provisioned CPU node (a promoted backup).

        CPU nodes hold only soft state (§5.2), so joining is just
        appearing in the membership list and campaigning; no data
        transfer is involved.
        """
        self.cpu_nodes.append(cpu_node)
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "group.adopt_cpu_node",
                self.fabric.sim.now,
                group=self.name,
                node=cpu_node.host.name,
            )
        return cpu_node

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def crash_coordinator(self) -> Optional[CpuNode]:
        """Kill the current coordinator (no-op when there is none)."""
        coordinator = self.coordinator()
        if coordinator is not None:
            if obs_state.TRACER is not None:
                obs_state.TRACER.instant(
                    "group.crash_coordinator",
                    self.fabric.sim.now,
                    group=self.name,
                    coordinator=coordinator.host.name,
                )
            coordinator.crash()
        return coordinator

    def crash_memory_node(self, index: int) -> None:
        """Kill memory node *index* (volatile nodes lose their contents)."""
        self.memory_nodes[index].crash()

    def restart_memory_node(self, index: int) -> None:
        """Restart memory node *index*; the coordinator will re-copy it."""
        self.memory_nodes[index].restart()

    def __repr__(self) -> str:
        return (
            f"<SiftGroup {self.name} fm={self.config.fm} fc={self.config.fc} "
            f"ec={self.config.erasure_coding}>"
        )
