"""Live key-range migration between running Sift groups.

Moves the hash arcs a split/merge reassigns from a *source* group to a
*destination* group without dropping a single acked write, while both
groups keep serving.  The protocol, in virtual time order:

1. **Dual-write mirror.**  A hook is installed on the source's serving
   coordinator: every in-range write commits locally and is then
   mirrored to the destination *synchronously, before the ack* — an
   acked in-range write is on the destination no matter what happens
   next.  Mirrors carry the source WAL sequence as a fence.
2. **Copy pass.**  A paginated ``kv.mig_scan`` walks the source's hash
   buckets (after quiescing the apply frontier past every record
   committed before the scan started) and imports each in-range record
   with ``kv.mig_put`` at fence sequence 0, so a stale copy can never
   overwrite a fresher mirrored write however the RPCs interleave.
3. **Failover restart.**  If the source's serving coordinator changes
   identity between hook install and scan end, writes may have been
   acked unmirrored; the manager re-installs the hook on the successor
   and restarts the scan from bucket zero.  Cutover requires one full
   scan under an unchanged coordinator.
4. **Cutover.**  In one atomic step (no intervening yield) the source
   hook flips to *forwarding* and the new ring is installed; the
   instant is stamped in :attr:`MigrationManager.cutover_at`.  Routers
   notice the ring version on their next operation.
5. **Forwarding window.**  In-range operations still reaching the
   source (stale routers, in-flight retries) are redirected to the
   destination; a keeper loop re-installs the forwarding hook on any
   successor coordinator.  Forwarding hooks stay installed after the
   window — retiring a merged-away source is safe only once its
   traffic has drained.

Deterministic: the manager consumes no RNG; every decision is a pure
function of observed simulated state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.kv.client import KvClient
from repro.net.fabric import Fabric
from repro.net.rpc import Reply
from repro.obs import state as obs_state
from repro.shard.hashing import key_point, ranges_contain
from repro.sim.units import MS, SEC

__all__ = ["MigrationManager"]


class _MirrorHooks:
    """Dual-write phase: in-range writes mirror to the destination."""

    phase = "mirror"

    def __init__(self, manager: "MigrationManager", client: KvClient):
        self.manager = manager
        self.client = client

    def forwards(self, key: bytes) -> bool:
        return False

    def forward(self, op: str, key: bytes, value: Optional[bytes] = None):
        raise RuntimeError("mirror-phase hooks never forward")

    def mirrors(self, key: bytes) -> bool:
        return self.manager.in_range(key)

    def mirror(self, key: bytes, value: Optional[bytes], seq: int):
        return self.manager._mirror(self.client, key, value, seq)


class _ForwardHooks:
    """Post-cutover phase: in-range operations redirect to the destination."""

    phase = "forward"

    def __init__(self, manager: "MigrationManager", client: KvClient):
        self.manager = manager
        self.client = client

    def forwards(self, key: bytes) -> bool:
        manager = self.manager
        if not manager.in_range(key):
            return False
        # A later migration may hand these arcs back (split then merge):
        # once the current ring assigns the key to this hook's own group
        # again, serving locally is authoritative — forwarding would
        # bounce the key between the two groups' stale hooks forever.
        return manager.service.ring.shard_for(bytes(key)) != manager.source

    def forward(self, op: str, key: bytes, value: Optional[bytes] = None):
        return self.manager._forward(self.client, op, key, value)

    def mirrors(self, key: bytes) -> bool:
        return False

    def mirror(self, key: bytes, value: Optional[bytes], seq: int):
        raise RuntimeError("forward-phase hooks never mirror")


class MigrationManager:
    """One live migration of a set of hash arcs between two groups.

    Build one with :meth:`split` or :meth:`merge` (which prepare the
    next ring version), then drive :meth:`run` as a process — usually
    via :meth:`repro.api.Cluster.migrate` or the reconciler.
    """

    def __init__(
        self,
        fabric: Fabric,
        service,
        source: str,
        dest: str,
        ring,
        moved_arcs: List[Tuple[int, int]],
        scan_page_buckets: int = 4096,
        forward_window_us: float = 200 * MS,
        keeper_poll_us: float = 2 * MS,
        ready_timeout_us: float = 30 * SEC,
    ):
        if source == dest:
            raise ValueError("source and destination must differ")
        self.fabric = fabric
        self.sim = fabric.sim
        self.service = service
        self.source = source
        self.dest = dest
        self.ring = ring
        self.moved_arcs = tuple(moved_arcs)
        self.scan_page_buckets = scan_page_buckets
        self.forward_window_us = forward_window_us
        self.keeper_poll_us = keeper_poll_us
        self.ready_timeout_us = ready_timeout_us
        host_name = f"{service.name}-mig-{source}-{dest}"
        suffix = 0
        while host_name in fabric.hosts:
            suffix += 1
            host_name = f"{service.name}-mig-{source}-{dest}.{suffix}"
        self.host = fabric.add_host(host_name, cores=2)
        self._scan_client = KvClient(self.host, fabric, service._group(source))
        self._import_client = KvClient(self.host, fabric, service._group(dest))
        self._dest_clients: Dict[str, KvClient] = {}
        self.stats = {
            "copied": 0,
            "pages": 0,
            "mirrored": 0,
            "forwarded": 0,
            "restarts": 0,
        }
        self.cutover_at: Optional[float] = None
        self.done = False

    # ------------------------------------------------------------------
    # Construction from ring mutations
    # ------------------------------------------------------------------

    @classmethod
    def split(cls, fabric: Fabric, service, shard: str, new_shard: Optional[str] = None, **kwargs):
        """Provision a new group and plan moving half of *shard* to it."""
        group = service.add_group(new_shard)
        ring, moved = service.ring.split(shard, group.name)
        return cls(fabric, service, shard, group.name, ring, moved, **kwargs)

    @classmethod
    def merge(cls, fabric: Fabric, service, shard: str, into: str, **kwargs):
        """Plan moving all of *shard*'s arcs into the running *into*."""
        ring, moved = service.ring.merge(shard, into)
        return cls(fabric, service, shard, into, ring, moved, **kwargs)

    # ------------------------------------------------------------------
    # Hook plumbing (runs on the source coordinator's host)
    # ------------------------------------------------------------------

    def in_range(self, key: bytes) -> bool:
        """Whether *key* falls in a moved arc."""
        return ranges_contain(self.moved_arcs, key_point(bytes(key)))

    def _dest_client_for(self, host) -> KvClient:
        """A destination-group client originating from *host* (cached)."""
        client = self._dest_clients.get(host.name)
        if client is None:
            client = KvClient(host, self.fabric, self.service._group(self.dest))
            self._dest_clients[host.name] = client
        return client

    def _mirror(self, client: KvClient, key: bytes, value: Optional[bytes], seq: int):
        """Process: replicate one acked write to the destination (fenced)."""
        self.stats["mirrored"] += 1
        nbytes = len(key) + (0 if value is None else len(value))
        yield from client._call("kv.mig_put", (bytes(key), value, seq), nbytes)

    def _forward(self, client: KvClient, op: str, key: bytes, value: Optional[bytes]):
        """Process: redirect one post-cutover operation; returns its Reply."""
        self.stats["forwarded"] += 1
        key = bytes(key)
        if op == "put":
            status, result = yield from client._call(
                "kv.put", (key, bytes(value)), len(key) + len(value)
            )
            return Reply((status, result), 32)
        if op == "get":
            status, result = yield from client._call("kv.get", key, len(key))
            nbytes = 16 + (len(result) if isinstance(result, bytes) else 0)
            return Reply((status, result), nbytes)
        status, result = yield from client._call("kv.delete", key, len(key))
        return Reply((status, result), 32)

    def _serving_app(self, group):
        """Process: wait for *group*'s serving coordinator; returns its app."""
        coordinator = yield from group.wait_until_serving(self.ready_timeout_us)
        return coordinator.app

    def _ours(self, app) -> bool:
        hook = getattr(app, "migration", None)
        return hook is not None and getattr(hook, "manager", None) is self

    def _install(self, app, phase_class) -> None:
        app.migration = phase_class(self, self._dest_client_for(app.host))

    # ------------------------------------------------------------------
    # The migration itself
    # ------------------------------------------------------------------

    def _copy_pass(self, source_group, app):
        """Process: scan + import every in-range record; False on failover."""
        buckets = self.service.kv_config.index_buckets
        page = max(1, self.scan_page_buckets)
        for lo in range(0, buckets, page):
            current = source_group.serving_coordinator()
            if current is None or current.app is not app:
                return False
            _status, rows = yield from self._scan_client._call(
                "kv.mig_scan", (lo, lo + page, self.moved_arcs), 64
            )
            self.stats["pages"] += 1
            for key, value in rows:
                yield from self._import_client._call(
                    "kv.mig_put", (key, value, 0), len(key) + len(value)
                )
                self.stats["copied"] += 1
        return True

    def run(self):
        """Process: execute the migration end to end; returns a summary.

        Safe to drive under chaos: coordinator failover on either side
        restarts the copy pass (source) or is absorbed by client
        retries (destination); a concurrent ring install by another
        migration is not supported — the reconciler serializes.
        """
        source_group = self.service._group(self.source)
        dest_group = self.service._group(self.dest)
        yield from dest_group.wait_until_serving(self.ready_timeout_us)
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "control.migration_start",
                self.sim.now,
                source=self.source,
                dest=self.dest,
                arcs=len(self.moved_arcs),
            )
        while True:
            app = yield from self._serving_app(source_group)
            self._install(app, _MirrorHooks)
            complete = yield from self._copy_pass(source_group, app)
            current = source_group.serving_coordinator()
            if complete and current is not None and current.app is app:
                # Atomic cutover: flip the hook and install the ring with
                # no yield in between, so no in-range op can be acked on
                # the source unmirrored and unforwarded.
                self._install(app, _ForwardHooks)
                self.service.install_ring(self.ring)
                self.cutover_at = self.sim.now
                break
            self.stats["restarts"] += 1
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "control.migration_cutover",
                self.sim.now,
                source=self.source,
                dest=self.dest,
                ring_version=self.ring.version,
            )
        # Forwarding window: chase coordinator changes so stragglers
        # hitting a successor still get redirected.
        deadline = self.sim.now + self.forward_window_us
        while self.sim.now < deadline:
            yield self.sim.timeout(self.keeper_poll_us)
            coordinator = source_group.serving_coordinator()
            if coordinator is not None and not self._ours(coordinator.app):
                self._install(coordinator.app, _ForwardHooks)
        self.done = True
        return {
            "source": self.source,
            "dest": self.dest,
            "ring_version": self.ring.version,
            "cutover_at_us": self.cutover_at,
            **self.stats,
        }

    def __repr__(self) -> str:
        return (
            f"<MigrationManager {self.source}->{self.dest} "
            f"arcs={len(self.moved_arcs)} done={self.done}>"
        )
