"""Multi-core CPU modelled as a FIFO service queue.

Every protocol step that costs CPU (request parsing, hashing, erasure
encoding, applying log entries) is charged through :meth:`CpuPool.execute`.
With ``c`` cores the pool behaves as an M/G/c queue: up to ``c`` tasks are
in service simultaneously, the rest wait in FIFO order.  This is the
mechanism behind Figure 7 of the paper (throughput vs. provisioned cores)
and the normalized-performance provisioning in Table 2.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Tuple

from repro.obs import state as obs_state
from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["CpuPool"]


class CpuPool:
    """A fixed pool of identical cores with a shared FIFO run queue."""

    def __init__(self, sim: Simulator, cores: int, name: str = "cpu"):
        if cores < 1:
            raise SimulationError(f"CPU pool needs at least one core, got {cores}")
        self.sim = sim
        self.cores = cores
        self.name = name
        self._busy = 0
        self._waiting: Deque[Tuple[float, Callable, tuple]] = deque()
        self._busy_time = 0.0  # accumulated core-microseconds of service

    def execute(self, cost: float) -> Event:
        """Charge *cost* core-microseconds; the event triggers on completion.

        Zero-cost work completes immediately (without a queue round trip) so
        callers can charge optional costs unconditionally.
        """
        done = Event(self.sim)
        self.submit(cost, done.try_trigger, None)
        return done

    def submit(self, cost: float, fn: Callable, *args) -> None:
        """Charge *cost* core-microseconds, then call ``fn(*args)``.

        The one completion path: :meth:`execute` is this with an
        :class:`Event`'s ``try_trigger``; callers that only need a
        continuation (the NIC transmit queues) pass it directly and
        allocate no event.  Zero-cost work calls *fn* before returning.
        """
        if cost <= 0.0:
            fn(*args)
            return
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter("cpu.core_us", pool=self.name).inc(cost)
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "cpu.execute",
                self.sim.now,
                pool=self.name,
                cost_us=cost,
                queued=len(self._waiting),
            )
        if self._busy < self.cores:
            self._busy += 1
            self._busy_time += cost
            self.sim.schedule(cost, self._finish, fn, args)
        else:
            self._waiting.append((cost, fn, args))

    def _finish(self, fn: Callable, args: tuple) -> None:
        # The freed core takes the next waiter before the finished
        # task's continuation runs (it may enqueue more work).
        if self._waiting:
            cost, next_fn, next_args = self._waiting.popleft()
            self._busy_time += cost
            self.sim.schedule(cost, self._finish, next_fn, next_args)
        else:
            self._busy -= 1
        fn(*args)

    # -- introspection -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Number of tasks waiting for a core right now."""
        return len(self._waiting)

    @property
    def busy_cores(self) -> int:
        """Number of cores currently in service."""
        return self._busy

    def utilisation(self, elapsed: float) -> float:
        """Mean core utilisation over *elapsed* microseconds of virtual time."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / (self.cores * elapsed))

    def drain(self) -> None:
        """Discard all queued work (crash injection)."""
        self._waiting.clear()
