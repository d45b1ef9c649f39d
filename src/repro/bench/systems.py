"""System-under-test factories.

Each spec builds a fresh cluster on a fresh fabric, so the experiment
drivers in :mod:`repro.bench.runner` can treat Sift, Sift EC, Raft-R,
EPaxos and the sharded service identically.  A :class:`SystemSpec` is
data (name, ``build(fabric)``, client constructor, readiness budget);
:class:`repro.api.Cluster` stands one up, everything else is asked of
the cluster, and nothing above the four cluster classes probes a
cluster's type.

**What a system under test provides** (member: who reads it; DESIGN.md
§6 spells out the figure, chaos and obs consumers):

* ``fabric``, ``name``, ``cpu_nodes``: clients (endpoints),
  ``ChaosController`` (crash/restart by index), every label and host name;
* ``kind``, ``leader_based``, ``durable_across_crash``: what chaos
  errors call the system and which checks ``ChaosRunner`` applies
  (``LeaderMonitor``'s per-term uniqueness; lincheck or no-phantoms);
* ``ring``: None unless sharded; ``Cluster.client``'s router vs
  ``KvClient``, striped sampler, open-loop lanes, the ring case of
  ``Topology.of``/``publish_run`` and of ``crash_coordinator``;
* ``memory_nodes``: ``ChaosController`` memory-node faults
  (``UnsupportedFault`` where empty, i.e. on Raft-R and EPaxos);
* ``start()``, ``wait_until_serving()``, ``preload(items)``: ``Cluster``'s
  build -> ``wait_ready`` -> ``preload`` preamble of every driver, and
  the chaos runner's readiness and post-schedule liveness;
* ``is_serving()``, ``leaders()``, ``leader_node()``: ``LeaderMonitor``,
  ``ChaosController``'s ``LEADER``/``FOLLOWER`` targets, ``Topology``
  placement, the obs cache gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.baselines.epaxos import EPaxosCluster, EPaxosConfig
from repro.baselines.raft import RaftCluster, RaftConfig
from repro.bench.calibration import DEFAULT_SCALE, BenchScale
from repro.core.group import SiftGroup
from repro.kv.config import KvConfig
from repro.kv.store import kv_app_factory
from repro.net.fabric import Fabric
from repro.sim.units import SEC

__all__ = ["SystemSpec", "sift_spec", "raft_spec", "epaxos_spec", "sharded_spec"]


@dataclass(frozen=True)
class SystemSpec:
    """A buildable system-under-test."""

    name: str
    build: Callable[[Fabric], object]  # construct and start the cluster
    #: Client constructor ``(host, fabric, cluster)``; None -> KvClient.
    client_factory: Optional[Callable] = None
    #: Simulated time :meth:`repro.api.Cluster.ready` allows before giving up.
    ready_timeout_us: float = 5 * SEC


def _kv_config(scale: BenchScale, kv_overrides: Optional[dict]) -> KvConfig:
    """The paper's KV store sized for *scale*, *kv_overrides* applied."""
    sized = dict(max_keys=scale.keys + 1024, wal_entries=scale.kv_wal_entries)
    return KvConfig(**{**sized, **(kv_overrides or {})})


# ---------------------------------------------------------------------------
# Sift / Sift EC
# ---------------------------------------------------------------------------


def sift_spec(
    f: int = 1,
    erasure_coding: bool = False,
    cores: Optional[int] = None,
    scale: BenchScale = DEFAULT_SCALE,
    kv_overrides: Optional[dict] = None,
    recovery_partitions: int = 1,
) -> SystemSpec:
    """A Sift group serving the paper's KV store.

    *kv_overrides* tweaks :class:`KvConfig` fields (cache fraction,
    apply workers, ...) for ablation experiments.
    *recovery_partitions* selects the memory-node recovery strategy:
    1 is the paper's coordinator-driven stream, above 1 enables the
    RAMCloud-style partitioned source→target copy (the fig11 sweep).
    """
    kv_config = _kv_config(scale, kv_overrides)
    if cores is None:
        cores = 12 if erasure_coding else 10  # Table 2 defaults
    name = f"sift{'-ec' if erasure_coding else ''}"

    def build(fabric: Fabric) -> SiftGroup:
        sift_config = kv_config.sift_config(
            fm=f,
            fc=f,
            erasure_coding=erasure_coding,
            wal_entries=scale.wal_entries,
            cpu_node_cores=cores,
            recovery_partitions=recovery_partitions,
        )
        group = SiftGroup(
            fabric, sift_config, name=name, app_factory=kv_app_factory(kv_config)
        )
        group.start()
        return group

    return SystemSpec(name=name, build=build)


# ---------------------------------------------------------------------------
# Sharded service, Raft-R
# ---------------------------------------------------------------------------


def sharded_spec(
    shards: int = 2,
    backups: int = 1,
    provisioning_delay_us: float = 100 * SEC,
    cores: Optional[int] = None,
    scale: BenchScale = DEFAULT_SCALE,
    kv_overrides: Optional[dict] = None,
    **service_overrides,
) -> SystemSpec:
    """The multi-group sharded KV service over a live shared backup pool."""
    from repro.shard.router import ShardRouter
    from repro.shard.service import ShardedKvService

    kv_config = _kv_config(scale, kv_overrides)
    if cores is not None:
        service_overrides.setdefault("cpu_node_cores", cores)

    def build(fabric: Fabric) -> ShardedKvService:
        service = ShardedKvService(
            fabric,
            shards=shards,
            backups=backups,
            kv_config=kv_config,
            provisioning_delay_us=provisioning_delay_us,
            wal_entries=scale.wal_entries,
            **service_overrides,
        )
        service.start()
        return service

    return SystemSpec(
        name="sharded",
        build=build,
        client_factory=ShardRouter,
        ready_timeout_us=10 * SEC,
    )


def raft_spec(
    f: int = 1,
    cores: int = 8,
    scale: BenchScale = DEFAULT_SCALE,
) -> SystemSpec:
    """The Raft-R comparison system (§6.3.1)."""

    def build(fabric: Fabric) -> RaftCluster:
        config = RaftConfig(f=f, cores=cores)
        cluster = RaftCluster(fabric, config, name="raft")
        cluster.start()
        return cluster

    return SystemSpec(name="raft-r", build=build)


# ---------------------------------------------------------------------------
# EPaxos
# ---------------------------------------------------------------------------


def epaxos_spec(
    f: int = 1,
    cores: int = 8,
    scale: BenchScale = DEFAULT_SCALE,
) -> SystemSpec:
    """The EPaxos comparison system (§6.3.1)."""

    def build(fabric: Fabric) -> EPaxosCluster:
        config = EPaxosConfig(f=f, cores=cores)
        cluster = EPaxosCluster(fabric, config, name="epaxos")
        cluster.start()
        return cluster

    return SystemSpec(name="epaxos", build=build)
