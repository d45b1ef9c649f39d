"""Deterministic fault injection (the repo's chaos layer).

Everything failure-related flows through here: declarative
:class:`FaultSchedule` plans, the :class:`ChaosController` that applies
them to any cluster's system protocol, the invariant-checking
:class:`ChaosRunner`, and a seeded :mod:`random-schedule explorer
<repro.chaos.explorer>`.  Benchmarks (Figs. 11–12) and the fault-matrix
regression suite inject through this one mechanism, so a failure
anywhere is replayable from a single seed.
"""

from repro.chaos.controller import ChaosController, UnsupportedFault
from repro.chaos.explorer import ChaosSpace, Failure, ScheduleExplorer, random_schedule, shrink
from repro.chaos.faults import MessageChaos
from repro.chaos.invariants import (
    InvariantViolation,
    LeaderMonitor,
    check_linearizable,
    check_no_phantoms,
)
from repro.chaos.runner import ChaosError, ChaosResult, ChaosRunner
from repro.chaos.schedule import FOLLOWER, LEADER, FaultAction, FaultSchedule

__all__ = [
    "FaultAction",
    "FaultSchedule",
    "LEADER",
    "FOLLOWER",
    "ChaosController",
    "UnsupportedFault",
    "MessageChaos",
    "InvariantViolation",
    "LeaderMonitor",
    "check_linearizable",
    "check_no_phantoms",
    "ChaosError",
    "ChaosResult",
    "ChaosRunner",
    "ChaosSpace",
    "Failure",
    "ScheduleExplorer",
    "random_schedule",
    "shrink",
]
