"""Client-side shard routing.

A router is one client host's view of the whole sharded service: one
:class:`~repro.kv.client.KvClient` per shard, each with its own
preferred-coordinator cache, with every operation dispatched through
the service's hash ring.  The router deliberately has the same
``put``/``get``/``delete`` generator surface (and ``prefer`` hook) as
``KvClient`` so :class:`repro.workloads.clients.ClientPool` and the
chaos runner drive either interchangeably.
"""

from __future__ import annotations

from typing import Dict

from repro.kv.client import KvClient
from repro.net.fabric import Fabric
from repro.net.host import Host
from repro.obs import state as obs_state
from repro.shard.service import ShardedKvService
from repro.sim.units import MS

__all__ = ["ShardRouter"]


class ShardRouter:
    """Routes KV operations from one host to the owning shard."""

    def __init__(
        self,
        host: Host,
        fabric: Fabric,
        service: ShardedKvService,
        request_timeout_us: float = 10 * MS,
        max_rounds: int = 2_000,
        retry_backoff_us: float = 5 * MS,
    ):
        self.host = host
        self.service = service
        self._fabric = fabric
        self._client_kwargs = dict(
            request_timeout_us=request_timeout_us,
            max_rounds=max_rounds,
            retry_backoff_us=retry_backoff_us,
        )
        self.ring_version = service.ring.version
        self.cache_invalidations = 0
        self.clients: Dict[str, KvClient] = {
            group.name: KvClient(host, fabric, group, **self._client_kwargs)
            for group in service.groups
        }

    def _sync(self) -> None:
        """Invalidate the per-shard client cache on a ring version bump.

        Routers poll the version (one int compare on the hot path)
        instead of subscribing: the service installs a new ring at
        cutover and every router converges on its next operation.
        Clients for surviving shards keep their warmed coordinator
        caches; retired shards are dropped, new shards get fresh
        clients.
        """
        ring = self.service.ring
        if ring.version == self.ring_version:
            return
        alive = set(ring.shards)
        for name in [name for name in self.clients if name not in alive]:
            del self.clients[name]
        for name in ring.shards:
            if name not in self.clients:
                self.clients[name] = KvClient(
                    self.host,
                    self._fabric,
                    self.service._group(name),
                    **self._client_kwargs,
                )
        self.ring_version = ring.version
        self.cache_invalidations += 1

    def prefer(self, index: int) -> None:
        """Seed every per-shard client's preferred-coordinator cache."""
        self._sync()
        for client in self.clients.values():
            client.prefer(index)

    def client_for(self, key: bytes) -> KvClient:
        """The per-shard client owning *key*."""
        self._sync()
        return self.clients[self.service.shard_for(key)]

    # -- public API (all processes, same surface as KvClient) --------------------

    def put(self, key: bytes, value: bytes):
        """Process: store *value* under *key* on the owning shard."""
        self._sync()
        shard = self.service.shard_for(key)
        started = self.host.sim.now
        result = yield from self.clients[shard].put(key, value)
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.slo("shard.op_latency_us", op="put", shard=shard).observe(
                self.host.sim.now - started
            )
        return result

    def get(self, key: bytes):
        """Process: fetch *key* from the owning shard."""
        self._sync()
        shard = self.service.shard_for(key)
        started = self.host.sim.now
        result = yield from self.clients[shard].get(key)
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.slo("shard.op_latency_us", op="get", shard=shard).observe(
                self.host.sim.now - started
            )
        return result

    def delete(self, key: bytes):
        """Process: delete *key* on the owning shard."""
        self._sync()
        shard = self.service.shard_for(key)
        started = self.host.sim.now
        result = yield from self.clients[shard].delete(key)
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.slo(
                "shard.op_latency_us", op="delete", shard=shard
            ).observe(self.host.sim.now - started)
        return result

    # -- diagnostics --------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Aggregated per-shard client stats.

        Counters sum exactly; ``inflight`` is the router's live total,
        and ``inflight_peak`` sums per-shard peaks (an upper bound on
        the router-wide peak — the per-shard bound is what the dispatch
        windows actually enforce; see :meth:`inflight_peaks`).
        """
        totals: Dict[str, int] = {}
        for client in self.clients.values():
            for field, value in client.stats.items():
                totals[field] = totals.get(field, 0) + value
        return totals

    def inflight_peaks(self) -> Dict[str, int]:
        """Peak concurrently issued ops per shard (bounded-dispatch hook)."""
        return {
            shard: client.stats["inflight_peak"]
            for shard, client in self.clients.items()
        }

    def __repr__(self) -> str:
        return f"<ShardRouter {self.host.name} -> {len(self.clients)} shards>"
