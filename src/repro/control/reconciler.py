"""The single-leader reconciler: observe, compare, act.

One loop on one control host periodically compares desired state
against observed state and acts through the three control-plane
mechanisms.  Signals and responses:

* **per-shard offered load** — deltas of each serving coordinator's
  cumulative op counters (:meth:`ShardedKvService.group_op_totals`).
  A shard running hotter than ``imbalance_factor`` times the mean (and
  above an absolute floor) is split: a fresh group is provisioned and
  half the shard's arcs are live-migrated to it.
* **pool pressure** — the backup pool's promotion request times inside
  a sliding window, replayed through the Figure 8 heap model
  (:func:`repro.cluster.backups.desired_pool_size`) to find the
  smallest pool that would have absorbed the observed burst; the pool
  is resized to that.
* **idle shards** — optionally (``merge_idle_factor``), the coldest
  shard is merged into the largest one.

Actions are strictly serialized — one migration at a time — and the
loop consumes no RNG, so a reconciled run is byte-deterministic in the
fabric seed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.cluster.backups import desired_pool_size
from repro.control.migrate import MigrationManager
from repro.net.fabric import Fabric
from repro.obs import state as obs_state
from repro.sim.units import MS, SEC

__all__ = ["Reconciler", "ReconcilerConfig"]


class ReconcilerConfig(NamedTuple):
    """Policy knobs for one reconciler loop."""

    interval_us: float = 50 * MS
    #: Split when the hottest shard exceeds this multiple of the mean
    #: per-shard rate (and at least ``min_split_ops`` ops last interval).
    imbalance_factor: float = 1.5
    min_split_ops: int = 64
    max_shards: int = 8
    #: Merge the coldest shard into the largest when its rate falls
    #: below this multiple of the mean (None disables merging).
    merge_idle_factor: Optional[float] = None
    min_shards: int = 1
    #: Pool autoscaling bounds and the promotion-observation window.
    pool_min: int = 1
    pool_max: int = 8
    pool_window_us: float = 5 * SEC
    pool_target_extra_s: float = 0.0
    #: Forward-window length handed to migrations this loop starts.
    forward_window_us: float = 200 * MS


class Reconciler:
    """Drives a sharded service toward its desired shape."""

    def __init__(
        self,
        fabric: Fabric,
        service,
        config: Optional[ReconcilerConfig] = None,
    ):
        self.fabric = fabric
        self.sim = fabric.sim
        self.service = service
        self.config = config or ReconcilerConfig()
        host_name = f"{service.name}-reconciler"
        suffix = 0
        while host_name in fabric.hosts:
            suffix += 1
            host_name = f"{service.name}-reconciler.{suffix}"
        self.host = fabric.add_host(host_name, cores=2)
        self.running = False
        self._last_totals: Dict[str, int] = {}
        self.migrations: List[MigrationManager] = []
        self.splits = 0
        self.merges = 0
        self.pool_resizes = 0
        self.rounds = 0
        #: ``(at_us, action, detail)`` tuples, for tests and figures.
        self.log: List[tuple] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin reconciling every ``interval_us`` of virtual time."""
        if self.running:
            return
        self.running = True
        self.host.spawn(self._loop(), name=f"{self.service.name}-reconcile")

    def stop(self) -> None:
        self.running = False

    def _loop(self):
        while self.running:
            yield self.sim.timeout(self.config.interval_us)
            if not self.running:
                return
            yield from self.reconcile_once()

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------

    def _record(self, action: str, detail) -> None:
        self.log.append((self.sim.now, action, detail))
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                f"control.{action}", self.sim.now, detail=str(detail)
            )

    def observe(self) -> Dict[str, int]:
        """Per-shard op-rate deltas since the previous observation."""
        totals = self.service.group_op_totals()
        deltas = {
            shard: max(0, total - self._last_totals.get(shard, 0))
            for shard, total in totals.items()
        }
        self._last_totals = totals
        return deltas

    def reconcile_once(self):
        """Process: one observe-compare-act round (actions serialized)."""
        self.rounds += 1
        deltas = self.observe()
        self._reconcile_pool()
        yield from self._reconcile_shards(deltas)

    def _reconcile_pool(self) -> None:
        pool = self.service.pool
        cfg = self.config
        horizon = self.sim.now - cfg.pool_window_us
        recent_s = [
            at_us / 1e6
            for at_us in pool.request_log
            if at_us >= horizon
        ]
        desired = desired_pool_size(
            recent_s,
            provision_s=pool.provisioning_delay_us / 1e6,
            max_backups=cfg.pool_max,
            target_extra_s=cfg.pool_target_extra_s,
            min_backups=cfg.pool_min,
        )
        if desired != pool.capacity:
            previous = pool.resize(desired)
            self.pool_resizes += 1
            self._record("pool_resize", {"from": previous, "to": desired})

    def _reconcile_shards(self, deltas: Dict[str, int]):
        cfg = self.config
        ring = self.service.ring
        rates = {shard: deltas.get(shard, 0) for shard in ring.shards}
        mean = sum(rates.values()) / len(rates)
        # Deterministic tie-break: rate first, then name.
        hottest = max(sorted(rates), key=lambda shard: (rates[shard], shard))
        if (
            len(ring.shards) < cfg.max_shards
            and rates[hottest] >= cfg.min_split_ops
            and rates[hottest] > cfg.imbalance_factor * mean
        ):
            yield from self._split(hottest)
            return
        if cfg.merge_idle_factor is not None and len(ring.shards) > cfg.min_shards:
            coldest = min(sorted(rates), key=lambda shard: (rates[shard], shard))
            largest = max(
                sorted(rates), key=lambda shard: (rates[shard], shard)
            )
            if coldest != largest and rates[coldest] < cfg.merge_idle_factor * mean:
                yield from self._merge(coldest, largest)

    def _split(self, shard: str):
        """Process: split *shard*, live-migrating half its arcs."""
        manager = MigrationManager.split(
            self.fabric,
            self.service,
            shard,
            forward_window_us=self.config.forward_window_us,
        )
        self.migrations.append(manager)
        self.splits += 1
        self._record("split", {"shard": shard, "new": manager.dest})
        result = yield from manager.run()
        # Reset the rate baseline: the split shard's counters now spread
        # over two groups and a raw delta would double-count.
        self._last_totals = self.service.group_op_totals()
        return result

    def _merge(self, shard: str, into: str):
        """Process: merge *shard* into *into* and retire its group."""
        manager = MigrationManager.merge(
            self.fabric,
            self.service,
            shard,
            into,
            forward_window_us=self.config.forward_window_us,
        )
        self.migrations.append(manager)
        self.merges += 1
        self._record("merge", {"shard": shard, "into": into})
        result = yield from manager.run()
        # The forwarding window has closed: decommission the source group.
        self.service.retire_group(shard)
        self._last_totals = self.service.group_op_totals()
        return result

    def __repr__(self) -> str:
        return (
            f"<Reconciler {self.service.name} rounds={self.rounds} "
            f"splits={self.splits} resizes={self.pool_resizes}>"
        )
