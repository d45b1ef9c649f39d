"""The sharded KV service: G groups, one fabric, one shared backup pool.

The service owns provisioning only — groups do consensus, the
:class:`~repro.core.backups.BackupPool` does CPU-node recovery, the
:class:`~repro.shard.hashing.HashRing` does placement.  Clients go
through :class:`repro.shard.router.ShardRouter`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.core.backups import BackupPool
from repro.core.group import SiftGroup
from repro.kv import KvConfig, kv_app_factory
from repro.net.fabric import Fabric
from repro.obs import state as obs_state
from repro.sim.units import MS, SEC
from repro.shard.hashing import HashRing

__all__ = ["ShardedKvService"]


class ShardedKvService:
    """G Sift groups sharing a fabric and a live pool of backup CPU VMs.

    With per-group provisioning, G groups tolerating ``Fc`` coordinator
    faults each need ``G x (Fc + 1)`` CPU nodes.  Because CPU nodes are
    stateless (§5.2), this service instead provisions *one* CPU node per
    group (``fc=0``) by default and a pool of *backups* spares shared by
    every group; the pool's watchdog promotes a spare into whichever
    group loses its coordinator.  ``G + B`` CPU VMs replace
    ``G x (Fc + 1)``.

    G simultaneous coordinators are legitimate here, so the global
    leader-uniqueness invariant does not apply (``leader_based=False``);
    per-group uniqueness is enforced inside each group's election.
    Nodes are addressed by flattened index across shards (in shard
    order, promoted backups included), and serving means *every*
    shard serves — after a coordinator crash, liveness therefore
    requires the shared backup pool to actually promote.
    """

    kind = "sharded"
    leader_based = False
    durable_across_crash = True

    def __init__(
        self,
        fabric: Fabric,
        shards: int = 2,
        backups: int = 1,
        kv_config: Optional[KvConfig] = None,
        fm: int = 1,
        fc: int = 0,
        erasure_coding: bool = False,
        provisioning_delay_us: float = 100 * SEC,
        virtual_nodes: int = 64,
        name: str = "shard",
        **sift_overrides,
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.fabric = fabric
        self.name = name
        self.n_shards = shards
        self.kv_config = kv_config or KvConfig(
            max_keys=4096, wal_entries=256, watermark_interval=64
        )
        overrides = dict(wal_entries=256, memnode_poll_interval_us=30 * MS)
        overrides.update(sift_overrides)
        self._sift_config = self.kv_config.sift_config(
            fm=fm, fc=fc, erasure_coding=erasure_coding, **overrides
        )
        self.groups: List[SiftGroup] = [
            SiftGroup(
                fabric,
                self._sift_config,
                name=f"{name}{index}",
                app_factory=kv_app_factory(self.kv_config),
            )
            for index in range(shards)
        ]
        self._by_name: Dict[str, SiftGroup] = {g.name: g for g in self.groups}
        self._next_group_index = shards
        self.ring = HashRing([g.name for g in self.groups], virtual_nodes=virtual_nodes)
        #: Every ring version ever installed, for ring-version-aware
        #: fault targeting (a fault scheduled before a split still finds
        #: the group that owns the intended key range today).
        self.ring_history: Dict[int, HashRing] = {self.ring.version: self.ring}
        self.pool = BackupPool(
            fabric,
            self.groups,
            size=backups,
            provisioning_delay_us=provisioning_delay_us,
            name=f"{name}-pool",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every group, then the pool's watchdog monitors."""
        for group in self.groups:
            group.start()
        self.pool.start()
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.gauge("shard.groups", service=self.name).set(
                len(self.groups)
            )

    def stop(self) -> None:
        """Stop promoting backups (groups keep serving)."""
        self.pool.stop()

    def wait_until_serving(self, timeout_us: Optional[float] = None):
        """Process: wait until *every* shard has a serving coordinator.

        The per-group deadline is the one absolute deadline, so a slow
        first shard does not extend the budget of the rest.
        """
        deadline = None if timeout_us is None else self.fabric.sim.now + timeout_us
        for group in self.groups:
            remaining = None if deadline is None else deadline - self.fabric.sim.now
            yield from group.wait_until_serving(remaining)
        return self

    def is_serving(self) -> bool:
        return all(group.is_serving() for group in self.groups)

    def preload(self, items) -> None:
        """Synchronous §6.2 pre-population, each pair to its owning shard."""
        by_shard = defaultdict(list)
        for key, value in items:
            by_shard[self.shard_for(key)].append((key, value))
        for shard_name, shard_items in by_shard.items():
            self._group(shard_name).preload(shard_items)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def shard_for(self, key: bytes) -> str:
        """The shard name owning *key* (under the current ring)."""
        return self.ring.shard_for(key)

    def _group(self, name: str) -> SiftGroup:
        """Internal: look up a group by shard name."""
        return self._by_name[name]

    # ------------------------------------------------------------------
    # Topology mutation (driven by repro.control only)
    # ------------------------------------------------------------------

    def install_ring(self, ring: HashRing) -> None:
        """Adopt a new ring version (the migration cutover instant).

        Routers notice the version bump on their next operation and
        rebuild their per-shard client caches; the instant is stamped in
        virtual time for the migration protocol's cutover rule.
        """
        if ring.version <= self.ring.version:
            raise ValueError(
                f"ring version must advance: {ring.version} <= {self.ring.version}"
            )
        missing = [name for name in ring.shards if name not in self._by_name]
        if missing:
            raise ValueError(f"ring names unknown groups: {missing}")
        self.ring = ring
        self.ring_history[ring.version] = ring
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "shard.ring_install",
                self.fabric.sim.now,
                service=self.name,
                version=ring.version,
                shards=len(ring.shards),
            )
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.gauge("shard.ring_version", service=self.name).set(
                ring.version
            )

    def add_group(self, name: Optional[str] = None) -> SiftGroup:
        """Provision and start a new group on the shared fabric.

        The group joins the backup pool's watch list immediately; it
        owns no keys until a ring naming it is installed.
        """
        if name is None:
            name = f"{self.name}{self._next_group_index}"
            while name in self._by_name:
                self._next_group_index += 1
                name = f"{self.name}{self._next_group_index}"
            self._next_group_index += 1
        elif name in self._by_name:
            raise ValueError(f"group {name!r} already exists")
        group = SiftGroup(
            self.fabric,
            self._sift_config,
            name=name,
            app_factory=kv_app_factory(self.kv_config),
        )
        group.start()
        self.groups.append(group)
        self._by_name[name] = group
        self.pool.watch(group)
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.gauge("shard.groups", service=self.name).set(
                len(self.groups)
            )
        return group

    def retire_group(self, name: str) -> SiftGroup:
        """Decommission a merged-away group (must be off the ring)."""
        if name in self.ring.shards:
            raise ValueError(f"group {name!r} still owns ring ranges")
        group = self._by_name.pop(name)
        self.groups = [g for g in self.groups if g.name != name]
        self.pool.unwatch(group)
        for cpu in group.cpu_nodes:
            if cpu.host.alive:
                cpu.crash()
        for mem in group.memory_nodes:
            if mem.host.alive:
                mem.crash()
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.gauge("shard.groups", service=self.name).set(
                len(self.groups)
            )
        return group

    def resolve_shard(self, shard: str, ring_version: Optional[int] = None) -> str:
        """The current owner of the key range *shard* named at *ring_version*.

        A fault (or any plan) scheduled against a shard name before a
        split/merge still targets the intended *key range*: the name is
        resolved under the ring it was scheduled against, and the
        range's representative point is mapped through the current ring.
        Deterministic — pure ring arithmetic.
        """
        if shard in self.ring.shards and ring_version in (None, self.ring.version):
            return shard
        ring = None
        if ring_version is not None:
            ring = self.ring_history.get(ring_version)
            if ring is None:
                raise KeyError(f"unknown ring version {ring_version}")
            if shard not in ring.shards:
                raise KeyError(f"shard {shard!r} not on ring v{ring_version}")
        else:
            for version in sorted(self.ring_history, reverse=True):
                if shard in self.ring_history[version].shards:
                    ring = self.ring_history[version]
                    break
            if ring is None:
                raise KeyError(f"shard {shard!r} never existed on any ring")
        # The shard's first owned vnode point is in its own arc, so the
        # current ring's owner of that point owns the intended range.
        point = ring.arcs_of(shard)[0][1]
        return self.ring.owner_of_point(point)

    # ------------------------------------------------------------------
    # Introspection and fault injection (chaos / bench hooks)
    # ------------------------------------------------------------------

    @property
    def cpu_nodes(self):
        """Every CPU node across all shards (includes promoted backups)."""
        return [cpu for group in self.groups for cpu in group.cpu_nodes]

    @property
    def memory_nodes(self):
        """Every memory node across all shards, in shard order."""
        return [mem for group in self.groups for mem in group.memory_nodes]

    def leaders(self) -> List[Tuple[str, int]]:
        """``(host_name, term)`` for every coordinator, in shard order."""
        return [leader for group in self.groups for leader in group.leaders()]

    def leader_node(self):
        """The first live coordinator in shard order (what ``LEADER`` hits)."""
        leaders = (group.leader_node() for group in self.groups)
        return next((node for node in leaders if node is not None), None)

    def coordinators(self) -> Dict[str, Optional[str]]:
        """Shard name -> serving coordinator host name (None while down)."""
        out: Dict[str, Optional[str]] = {}
        for group in self.groups:
            coordinator = group.serving_coordinator()
            out[group.name] = None if coordinator is None else coordinator.host.name
        return out

    def group_op_totals(self) -> Dict[str, int]:
        """Per-shard cumulative op totals from each serving coordinator.

        The reconciler's offered-load signal.  A shard whose coordinator
        is mid-failover (or freshly elected, with reset stats) reports
        what its current server has seen; observers must treat deltas as
        ``max(0, delta)``.
        """
        out: Dict[str, int] = {}
        for group in self.groups:
            coordinator = group.serving_coordinator()
            if coordinator is None:
                out[group.name] = 0
                continue
            stats = coordinator.app.stats
            out[group.name] = stats["puts"] + stats["gets"] + stats["deletes"]
        return out

    def crash_coordinator(
        self, shard: Optional[str] = None, ring_version: Optional[int] = None
    ):
        """Kill one shard's coordinator (the first shard by default).

        Ring-version-aware: *shard* may name a shard from any installed
        ring version (pass *ring_version* to pin it); the fault lands on
        the group owning that key range under the *current* ring, so a
        schedule written before a split still hits its intended target.
        """
        if shard is None:
            group = self.groups[0]
        else:
            group = self._by_name[self.resolve_shard(shard, ring_version)]
        return group.crash_coordinator()

    def __repr__(self) -> str:
        return (
            f"<ShardedKvService {self.name} shards={len(self.groups)} "
            f"pool={self.pool.idle_backups}/{self.pool.capacity}>"
        )
