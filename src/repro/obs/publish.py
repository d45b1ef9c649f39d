"""End-of-run publication of substrate state into the registry.

Live counters (verbs by type, wire bytes, RPC calls) accumulate on the
hot path while a registry is installed; everything that is cheaper to
read once at the end of a run — per-host core-microseconds, NIC verb
totals, fabric message counts, cache hit rates, derived ratios — is
collected here by walking the fabric and cluster.  The publisher only
*reads* simulation state, so calling it never perturbs a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - avoids an import cycle at runtime
    from repro.net.fabric import Fabric

__all__ = ["publish_run"]


def publish_run(
    registry: MetricsRegistry, fabric: "Fabric", cluster: Optional[object] = None
) -> None:
    """Snapshot fabric/host/cluster state into *registry* gauges.

    *cluster* may be any of the harness's systems (SiftGroup,
    ShardedKvService, RaftCluster, EPaxosCluster); it is read through
    the members every system under test provides.
    """
    registry.gauge("fabric.messages_sent").set(fabric.messages_sent)
    registry.gauge("fabric.bytes_sent").set(fabric.bytes_sent)
    registry.gauge("fabric.messages_dropped").set(fabric.messages_dropped)
    registry.gauge("fabric.messages_duplicated").set(fabric.messages_duplicated)

    total_core_us = 0.0
    total_verbs = 0
    for name in sorted(fabric.hosts):
        host = fabric.hosts[name]
        busy_us = host.cpu._busy_time
        total_core_us += busy_us
        registry.gauge("host.core_us", host=name).set(busy_us)
        rnic = host.services.get("rnic")
        if rnic is not None:
            total_verbs += rnic.verbs_issued
            registry.gauge("host.verbs_issued", host=name).set(rnic.verbs_issued)
    registry.gauge("cluster.core_us_total").set(total_core_us)
    registry.gauge("cluster.verbs_issued_total").set(total_verbs)

    # RPC vs one-sided ratio: how much of the traffic bypassed remote CPUs.
    rpc_calls = registry.sum_counters("rpc.calls")
    one_sided = registry.sum_counters("rdma.verbs")
    registry.gauge("cluster.rpc_calls_total").set(rpc_calls)
    registry.gauge("cluster.one_sided_verbs_total").set(one_sided)
    if rpc_calls + one_sided > 0:
        registry.gauge("cluster.one_sided_fraction").set(
            one_sided / (rpc_calls + one_sided)
        )

    if cluster is not None:
        _publish_cluster(registry, cluster)


def _publish_cluster(registry: MetricsRegistry, cluster: object) -> None:
    # Sharded service: per-shard gauges plus the backup pool's state.
    if cluster.ring is not None:
        pool = cluster.pool
        for group in cluster.groups:
            coordinator = group.serving_coordinator()
            registry.gauge("shard.cpu_nodes", shard=group.name).set(
                len(group.cpu_nodes)
            )
            registry.gauge("shard.serving", shard=group.name).set(
                0 if coordinator is None else 1
            )
            _publish_cache(registry, coordinator, shard=group.name)
        registry.gauge("backup_pool.idle", pool=pool.name).set(pool.idle_backups)
        registry.gauge("backup_pool.promotions_total", pool=pool.name).set(
            pool.promotions
        )
        registry.gauge("backup_pool.waits_total", pool=pool.name).set(pool.waits)
        registry.gauge("backup_pool.recovery_wait_us_total", pool=pool.name).set(
            pool.recovery_wait_us_total
        )
        return
    # Sift: the serving coordinator's KV app carries the value cache
    # (Raft-R and EPaxos nodes have no ``app``, so nothing is published).
    _publish_cache(registry, cluster.leader_node() if cluster.is_serving() else None)


def _publish_cache(
    registry: MetricsRegistry, coordinator: object, **labels: str
) -> None:
    app = getattr(coordinator, "app", None)
    cache = getattr(app, "cache", None)
    if cache is not None and hasattr(cache, "hit_rate"):
        registry.gauge("kv.cache.hits", **labels).set(cache.hits)
        registry.gauge("kv.cache.misses", **labels).set(cache.misses)
        registry.gauge("kv.cache.hit_rate", **labels).set(cache.hit_rate)
        registry.gauge("kv.cache.entries", **labels).set(len(cache))
