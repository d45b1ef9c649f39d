"""The value type of a component reading that has a reader outside it.

A component's own counters are its stats surface: callers read its
``stats`` dict or its named counters (``pool.promotions``,
``engine.counts``, ``reconciler.splits``) where they count, and the
reconciler reads ``ShardedKvService.group_op_totals()`` and
``pool.request_log``.  Two readings are packaged as a
:class:`StatsSnapshot` because a reader needs them frozen at one
instant:

* ``BackupPool.snapshot()`` is :attr:`repro.control.topology.Topology.pool`,
  read by ``Cluster.topology()`` callers (the public API,
  ``examples/shared_backup_fleet.py``);
* ``OpenLoopEngine.snapshot()`` is the open-loop account the
  end-to-end benchmark reads (``benchmarks/e2e/scenarios.py``).
"""

from __future__ import annotations

from typing import Dict, NamedTuple

__all__ = ["StatsSnapshot"]


class StatsSnapshot(NamedTuple):
    """A point-in-time reading of one component.

    *kind* names the component type (``"backup_pool"``, ``"openloop"``);
    *name* the instance.  ``counters`` hold monotonically non-decreasing
    totals (promotions, sheds); ``gauges`` hold instantaneous levels
    (idle spares, active clients).
    """

    kind: str
    name: str
    counters: Dict[str, float]
    gauges: Dict[str, float]

    def counter(self, key: str, default: float = 0.0) -> float:
        return self.counters.get(key, default)

    def gauge(self, key: str, default: float = 0.0) -> float:
        return self.gauges.get(key, default)
