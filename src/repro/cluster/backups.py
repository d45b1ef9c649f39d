"""Trace-driven shared-backup-pool simulation (Figure 8, §6.4.2).

Replays a machine-failure trace against G Sift groups, "randomly
assigning machines to Sift groups and observing the additional recovery
time incurred by a lack of backup nodes.  When a node experienced a
failure, it was assumed that it would take 100 seconds to provision a
replacement — the average time to start up a Linux VM in EC2 [18]."

Model:

* each group occupies 4 distinct machines (F=1: 3 memory + 1 CPU);
* the pool holds B ready backup CPU VMs; when a group's *coordinator*
  machine fails, the group grabs a ready backup (zero additional
  recovery time) and the pool immediately starts provisioning a
  replacement VM (ready 100 s later); if the pool is empty the group
  waits for the next VM to arrive, and that wait is the *additional
  recovery time* charged to the fault;
* memory-node failures provision replacement VMs too, but the group
  keeps serving meanwhile (§3.4.2), so they add no recovery time;
* the metric is total additional recovery time divided by the number of
  failure events in the trace ("recovery time per fault"), averaged
  over repetitions with different random group placements.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, NamedTuple, Optional

from repro.cluster.trace import TraceConfig, generate_trace

__all__ = [
    "BackupSimResult",
    "PoolAccountant",
    "desired_pool_size",
    "simulate_backup_pool",
    "sweep_backup_pool",
]

PROVISION_S = 100.0  # [18]: average Linux VM start-up time on EC2
NODES_PER_GROUP = 4  # F=1: 3 memory nodes + 1 CPU node (§6.4.2)


class PoolAccountant:
    """Per-fault recovery-time accounting for a shared backup pool.

    One fault = one coordinator machine loss.  A pool of *backups* VMs
    is modelled as a min-heap of ready times: a fault grabs the earliest
    VM (charging ``max(0, ready - t)`` of additional recovery time) and
    the grabbed VM's replacement starts provisioning the moment it is
    handed over; with no pool at all the group provisions its own VM and
    is charged the full provisioning delay.  Both the Figure 8 trace
    replay (:func:`simulate_backup_pool`) and the *live*
    :class:`repro.core.backups.BackupPool` reconciliation
    (``fig8live``) run their charges through this one class, so the two
    models cannot drift apart.
    """

    def __init__(self, backups: int, provision_s: float = PROVISION_S):
        self.provision_s = provision_s
        self._ready: List[float] = [0.0] * backups
        heapq.heapify(self._ready)
        self.faults = 0
        self.waits = 0  # faults that found no ready VM
        self.total_extra_s = 0.0

    def fault(self, time_s: float) -> float:
        """Charge one coordinator fault at *time_s*; returns its wait."""
        self.faults += 1
        if self._ready:
            ready = heapq.heappop(self._ready)
            extra = max(0.0, ready - time_s)
            # The consumed backup's replacement starts provisioning now.
            heapq.heappush(self._ready, max(ready, time_s) + self.provision_s)
        else:
            # No pool at all: the group provisions its own VM.
            extra = self.provision_s
        if extra > 0:
            self.waits += 1
        self.total_extra_s += extra
        return extra

    def per_fault_s(self, events: Optional[int] = None) -> float:
        """Mean additional recovery time, divided by *events* if given
        (Figure 8 divides by *all* trace events, not only coordinator
        faults), else by the coordinator faults charged so far."""
        n = self.faults if events is None else events
        return self.total_extra_s / n if n else 0.0


def desired_pool_size(
    fault_times_s: List[float],
    provision_s: float = PROVISION_S,
    max_backups: int = 8,
    target_extra_s: float = 0.0,
    min_backups: int = 1,
) -> int:
    """The smallest pool that absorbs an observed fault burst (Fig 8).

    Replays *fault_times_s* (coordinator-fault request times, seconds,
    any order) through the :class:`PoolAccountant` heap model for each
    candidate size and returns the smallest ``B`` whose total additional
    recovery time stays at or below *target_extra_s* — the reconciler's
    desired capacity for the burstiness it just observed.  Falls back to
    *max_backups* when even that cannot absorb the burst.  Deterministic:
    pure arithmetic on the observed times, no RNG.
    """
    if min_backups < 0 or max_backups < min_backups:
        raise ValueError(
            f"need 0 <= min_backups <= max_backups, got {min_backups}..{max_backups}"
        )
    times = sorted(fault_times_s)
    if not times:
        return min_backups
    for backups in range(max(min_backups, 1), max_backups + 1):
        accountant = PoolAccountant(backups, provision_s=provision_s)
        for time_s in times:
            accountant.fault(time_s)
        if accountant.total_extra_s <= target_extra_s:
            return max(backups, min_backups)
    return max_backups


class BackupSimResult(NamedTuple):
    """One (groups, backups) cell."""

    groups: int
    backups: int
    recovery_time_per_fault_s: float
    coordinator_faults: int
    total_faults: int
    waits: int  # faults that found the pool empty


def simulate_backup_pool(
    events,
    machines: int,
    groups: int,
    backups: int,
    rng: random.Random,
) -> BackupSimResult:
    """Replay *events* (a :mod:`repro.cluster.trace` failure trace) once
    with a fresh random placement."""
    if groups * NODES_PER_GROUP > machines:
        raise ValueError(
            f"{groups} groups x {NODES_PER_GROUP} nodes exceed {machines} machines"
        )
    placement = rng.sample(range(machines), groups * NODES_PER_GROUP)
    coordinator_of: Dict[int, int] = {}  # machine -> group
    used = set(placement)
    for group in range(groups):
        coordinator_of[placement[group * NODES_PER_GROUP]] = group

    accountant = PoolAccountant(backups)
    free_machines = [m for m in range(machines) if m not in used]
    rng.shuffle(free_machines)

    for event in events:
        group = coordinator_of.pop(event.machine, None)
        if group is None:
            continue
        accountant.fault(event.time_s)
        # The group's new coordinator runs on a fresh machine.
        if free_machines:
            replacement = free_machines.pop()
            coordinator_of[replacement] = group

    return BackupSimResult(
        groups=groups,
        backups=backups,
        recovery_time_per_fault_s=accountant.per_fault_s(len(events)),
        coordinator_faults=accountant.faults,
        total_faults=len(events),
        waits=accountant.waits,
    )


def sweep_backup_pool(
    group_counts: List[int],
    backup_counts: List[int],
    repetitions: int = 50,
    config: TraceConfig = TraceConfig(),
    seed: int = 0,
) -> Dict[int, List[BackupSimResult]]:
    """Figure 8's sweep: mean recovery time per fault for each cell.

    The paper runs 50 repetitions per combination; each repetition uses
    a fresh random placement over the same trace.
    """
    events = generate_trace(config, seed=seed)
    out: Dict[int, List[BackupSimResult]] = {}
    for groups in group_counts:
        row: List[BackupSimResult] = []
        for backups in backup_counts:
            total = 0.0
            coordinator_faults = 0
            wait_count = 0
            for repetition in range(repetitions):
                rng = random.Random((seed, groups, backups, repetition).__hash__())
                result = simulate_backup_pool(
                    events, config.machines, groups, backups, rng
                )
                total += result.recovery_time_per_fault_s
                coordinator_faults += result.coordinator_faults
                wait_count += result.waits
            row.append(
                BackupSimResult(
                    groups=groups,
                    backups=backups,
                    recovery_time_per_fault_s=total / repetitions,
                    coordinator_faults=coordinator_faults // repetitions,
                    total_faults=len(events),
                    waits=wait_count // repetitions,
                )
            )
        out[groups] = row
    return out
