"""The read side of the topology API: one immutable snapshot type.

:meth:`repro.api.Cluster.topology` returns a :class:`Topology` instead
of handing out live service internals; everything a caller could
previously only learn by reaching into ``ShardedKvService`` (shards,
groups, ring version, coordinator placement, pool occupancy) is here,
stamped at one instant of virtual time.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.obs.stats import StatsSnapshot

__all__ = ["Topology"]


class Topology(NamedTuple):
    """An instantaneous view of a cluster's placement and elasticity.

    *shards* lists the key-range owners on the current ring (routing
    order); *groups* lists every provisioned consensus group, including
    groups off the ring (freshly added, or merged away but not yet
    retired).  *placement* maps each group to its serving coordinator's
    host name, ``None`` while it is mid-failover.
    """

    at_us: float
    shards: Tuple[str, ...]
    ring_version: int
    virtual_nodes: int
    groups: Tuple[str, ...]
    placement: Dict[str, Optional[str]]
    pool: Optional[StatsSnapshot]

    @classmethod
    def of(cls, inner, at_us: float) -> "Topology":
        """Snapshot *inner* (a sharded service, or any single-group system)."""
        if inner.ring is not None:
            return cls(
                at_us=at_us,
                shards=tuple(inner.ring.shards),
                ring_version=inner.ring.version,
                virtual_nodes=inner.ring.virtual_nodes,
                groups=tuple(group.name for group in inner.groups),
                placement=inner.coordinators(),
                pool=inner.pool.snapshot(),
            )
        leader = inner.leader_node() if inner.is_serving() else None
        return cls(
            at_us=at_us,
            shards=(inner.name,),
            ring_version=0,
            virtual_nodes=0,
            groups=(inner.name,),
            placement={inner.name: None if leader is None else leader.host.name},
            pool=None,
        )

    def coordinator_of(self, shard: str) -> Optional[str]:
        """The serving coordinator host of *shard* (None mid-failover)."""
        return self.placement[shard]

    def __repr__(self) -> str:
        return (
            f"<Topology v{self.ring_version} shards={list(self.shards)} "
            f"groups={len(self.groups)}>"
        )
