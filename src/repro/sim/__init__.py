"""Discrete-event simulation engine.

All Sift experiments run in *virtual time*.  The engine is a classic
event-queue simulator with generator-based processes, closely following the
structure of SimPy but implemented from scratch and trimmed to what the
networking substrate needs:

* :class:`~repro.sim.engine.Simulator` — the event loop and clock.
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Timeout` —
  one-shot waitable conditions.
* :class:`~repro.sim.engine.Process` — a generator that yields events.
* :meth:`~repro.sim.engine.Simulator.within` — the one deadline primitive:
  every timed wait fails its event unless it settles in time.
* :func:`~repro.sim.engine.all_of` / :func:`~repro.sim.engine.quorum` —
  combinators, the second of which is the primitive behind "wait for a
  majority of RDMA acks".
* :class:`~repro.sim.cpu.CpuPool` — a multi-core FIFO service queue used to
  charge protocol steps with core-microseconds.

The canonical time unit is the **microsecond** (``1.0``); helpers ``MS``
and ``SEC`` are provided for readability.
"""

from repro.sim.engine import (
    AllOf,
    Event,
    Process,
    ProcessKilled,
    QuorumEvent,
    SimulationError,
    Simulator,
    Timeout,
    all_of,
    quorum,
)
from repro.sim.cpu import CpuPool
from repro.sim.rng import RngStreams
from repro.sim.units import MS, SEC, US

__all__ = [
    "AllOf",
    "CpuPool",
    "Event",
    "MS",
    "Process",
    "ProcessKilled",
    "QuorumEvent",
    "RngStreams",
    "SEC",
    "SimulationError",
    "Simulator",
    "Timeout",
    "US",
    "all_of",
    "quorum",
]
