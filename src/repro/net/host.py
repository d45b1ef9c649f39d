"""Hosts: machines with CPU, liveness, and crash/restart injection.

A host owns a :class:`~repro.sim.cpu.CpuPool` and tracks every process
spawned on it so that :meth:`Host.crash` can kill them all, mirroring a
fail-stop machine failure.  Components attach themselves to the host
(RDMA NIC, RPC endpoint, memory regions) and consult :attr:`Host.alive`
and :attr:`Host.incarnation` to drop operations that straddle a crash.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.net.errors import HostDown
from repro.sim.cpu import CpuPool
from repro.sim.engine import Event, Process, ProcessGenerator, Simulator

__all__ = ["Host"]


def _joined_later(_process: Event) -> None:
    """The waiter :meth:`Host.fork` registers on behalf of the spawner."""


class Host:
    """A simulated machine."""

    def __init__(self, sim: Simulator, name: str, cores: int = 1):
        self.sim = sim
        self.name = name
        self.cpu = CpuPool(sim, cores, name=f"{name}.cpu")
        self.alive = True
        self.incarnation = 0
        #: The fabric that registered this host (set by ``Fabric.add_host``);
        #: a fabric delivers only to its own hosts.
        self.fabric: Any = None
        self._processes: List[Process] = []
        self._prune_at = 16
        # Open attachment point for substrate components (NIC, endpoints).
        self.services: Dict[str, Any] = {}

    # -- processes -----------------------------------------------------------

    def spawn(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Start a process bound to this host's lifetime."""
        if not self.alive:
            raise HostDown(f"{self.name} is down")
        process = self.sim.spawn(gen, name=f"{self.name}:{name or 'proc'}")
        self._processes.append(process)
        # Amortised cleanup: prune finished processes only when the list
        # has doubled, keeping spawn O(1) on the RPC fast path.
        if len(self._processes) >= self._prune_at:
            self._processes = [p for p in self._processes if p.alive]
            self._prune_at = max(16, 2 * len(self._processes))
        return process

    def fork(self, gen: ProcessGenerator, name: str = "") -> Process:
        """:meth:`spawn` a child the caller will ``yield`` later.

        The spawner is the child's waiter from this moment, not from the
        moment it reaches that ``yield``: in a fan-out (spawn several,
        then join them in turn) a child that fails while the parent is
        still joined on an earlier sibling has its failure delivered at
        its own join instead of being reported as an unobserved death.
        """
        process = self.spawn(gen, name)
        process.add_callback(_joined_later)
        return process

    def execute(self, cost_us: float) -> Event:
        """Charge CPU time on this host (fails immediately if host is down)."""
        if not self.alive:
            failed = Event(self.sim)
            failed.fail(HostDown(f"{self.name} is down"))
            return failed
        return self.cpu.execute(cost_us)

    # -- fault injection -------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop the machine: kill all processes, drop queued work."""
        if not self.alive:
            return
        self.alive = False
        self.cpu.drain()
        processes, self._processes = self._processes, []
        for process in processes:
            process.kill(f"{self.name} crashed")
        for service in self.services.values():
            on_crash = getattr(service, "on_host_crash", None)
            if on_crash is not None:
                on_crash()

    def restart(self) -> None:
        """Bring the machine back with a new incarnation (empty soft state)."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        for service in self.services.values():
            on_restart = getattr(service, "on_host_restart", None)
            if on_restart is not None:
                on_restart()

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Host {self.name} {state} cores={self.cpu.cores}>"
