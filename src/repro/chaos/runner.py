"""ChaosRunner: compose a fault schedule with a workload and check it.

One run = one fresh simulator.  The runner

1. stands the ``build(fabric)`` callable's cluster up through
   :class:`repro.api.Cluster` with RNG streams derived from *seed*,
2. starts a small closed-loop KV workload whose every operation is
   recorded as a :class:`~repro.bench.lincheck.Op`,
3. applies the :class:`~repro.chaos.schedule.FaultSchedule` action by
   action at its virtual times, re-checking leader uniqueness after
   every injection,
4. demands eventual liveness — after the schedule (plus residual
   partitions healed), the cluster must serve again within a deadline —
5. reads back every key and checks the full history: per-key
   linearizability for systems whose crash model preserves acked writes,
   a no-phantom-values check otherwise.

Failures raise :class:`ChaosError` whose message embeds the seed and
the injection trace, so any run replays from one integer.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.api import Cluster
from repro.bench.lincheck import History, RecordingClient
from repro.bench.systems import SystemSpec
from repro.chaos.controller import ChaosController
from repro.chaos.invariants import (
    InvariantViolation,
    LeaderMonitor,
    check_linearizable,
    check_no_phantoms,
)
from repro.chaos.schedule import FaultSchedule
from repro.errors import ReproError
from repro.net.fabric import Fabric
from repro.obs import state as obs_state
from repro.obs.flight import FlightRecorder, maybe_postmortem
from repro.obs.publish import publish_run
from repro.obs.trace import set_tracer
from repro.sim.engine import SimulationError
from repro.sim.units import MS, SEC

__all__ = ["ChaosError", "ChaosResult", "ChaosRunner"]

#: Every workload client's patience; the read-back client retries longer.
_CLIENT = dict(request_timeout_us=10 * MS, retry_backoff_us=5 * MS)


class ChaosError(AssertionError):
    """An invariant failed; carries everything needed to replay."""

    def __init__(self, message: str, seed: int, trace: Tuple):
        super().__init__(
            f"{message}\n  replay: seed={seed}\n  injected: "
            + (" | ".join(f"{t / 1e3:.1f}ms {label}" for t, label in trace) or "(nothing)")
        )
        self.seed = seed
        self.trace = trace


class ChaosResult(NamedTuple):
    """What one chaos run observed (all fields deterministic in seed)."""

    seed: int
    trace: Tuple[Tuple[float, str], ...]  # (sim time us, action label)
    ops: int
    acked_puts: int
    failed_ops: int
    leader_terms: Tuple[Tuple[int, str], ...]  # (term, leader host) observed
    max_simultaneous_leaders: int

    def fingerprint(self) -> Tuple:
        """Identity for determinism tests: two same-seed runs must match."""
        return self


class ChaosRunner:
    """Run one schedule against one freshly built cluster and judge it."""

    def __init__(
        self,
        build: Callable[[Fabric], object],
        schedule: FaultSchedule,
        seed: int = 0,
        clients: int = 3,
        keys_per_client: int = 3,
        write_fraction: float = 0.5,
        op_gap_us: float = 40 * MS,
        settle_us: float = 300 * MS,
        ready_timeout_us: float = 5 * SEC,
        liveness_timeout_us: float = 5 * SEC,
        check_linearizability: Optional[bool] = None,
    ):
        self.build = build
        self.schedule = schedule
        self.seed = seed
        self.n_clients = clients
        self.keys_per_client = keys_per_client
        self.write_fraction = write_fraction
        self.op_gap_us = op_gap_us
        self.settle_us = settle_us
        self.ready_timeout_us = ready_timeout_us
        self.liveness_timeout_us = liveness_timeout_us
        self.check_linearizability = check_linearizability

        # Per-run state, populated by run().
        self.sim = self.fabric = self.cluster = self._booted = None
        self.history = History()
        self.trace: List[Tuple[float, str]] = []
        self.stop_clients = False

    # -- internals ---------------------------------------------------------------

    def _fail(self, message: str) -> None:
        path = maybe_postmortem(
            f"chaos {message}",
            extra={
                "seed": self.seed,
                "trace": [[t, label] for t, label in self.trace],
            },
        )
        if path is not None:
            message = f"{message}\n  postmortem: {path}"
        raise ChaosError(message, self.seed, tuple(self.trace))

    def _require(self, what: str, process, deadline_us: float):
        """Run *process* to completion or fail the run as *what*."""
        try:
            return self._booted.run(process, deadline_us=deadline_us)
        except (ReproError, TimeoutError) as exc:
            self._fail(f"{what} failed: {exc}")

    def _check_monitor(self, monitor: LeaderMonitor) -> None:
        monitor.observe()
        if monitor.violations:
            self._fail("leader uniqueness violated: " + "; ".join(monitor.violations))

    def _client_loop(self, index: int, client: RecordingClient, keys):
        """One closed-loop client owning a private key set.

        Single-writer-per-key keeps per-key histories small (the
        Wing-Gong checker is exponential) and makes "the acked value
        must survive" unambiguous.
        """
        rng = self.fabric.rng.stream(f"chaos:client:{index}")
        sequence = 0
        while not self.stop_clients:
            key = keys[sequence % len(keys)]
            if rng.random() < self.write_fraction:
                sequence += 1
                yield from client.put(key, b"c%d:%d" % (index, sequence))
            else:
                yield from client.get(key)
            yield self.sim.timeout(self.op_gap_us)

    # -- the run -----------------------------------------------------------------

    def run(self) -> ChaosResult:
        """Run the schedule with a flight recorder installed.

        Unless the caller already traces, a bounded :class:`FlightRecorder`
        rides along for the whole run (zero schedule perturbation, O(ring)
        memory) so any invariant failure can dump its final moments via
        :func:`repro.obs.flight.maybe_postmortem`.  A protocol process
        that dies of an unhandled exception fails the run like any other
        invariant: seed, trace and postmortem included.
        """
        owns_recorder = obs_state.TRACER is None
        previous = set_tracer(FlightRecorder()) if owns_recorder else None
        try:
            return self._run()
        except SimulationError as exc:
            if exc.process is None:
                raise
            self._fail(f"process died: {exc.process.name}: {exc.__cause__!r}")
        finally:
            if owns_recorder:
                set_tracer(previous)

    def _run(self) -> ChaosResult:
        self.history = History()
        self.stop_clients = False
        spec = SystemSpec("chaos", self.build, ready_timeout_us=self.ready_timeout_us)
        self._booted = booted = Cluster.build(spec, seed=self.seed)
        self.sim, self.fabric, self.cluster = booted.sim, booted.fabric, booted.inner
        cluster = self.cluster
        controller = ChaosController(cluster)
        self.trace = controller.applied  # (sim time, label) of every injection
        self._require("initial readiness", booted.ready(), self.ready_timeout_us)

        monitor = LeaderMonitor(cluster)
        monitor.start()
        indices = range(self.n_clients)
        clients = [
            RecordingClient(
                booted.client(name=f"chaos-c{i}", cores=2, max_rounds=6, **_CLIENT),
                self.history,
            )
            for i in indices
        ]
        keys = [[b"c%d-k%d" % (i, k) for k in range(self.keys_per_client)] for i in indices]
        workers = [
            self.sim.spawn(
                self._client_loop(i, clients[i], keys[i]), name=f"chaos-client-{i}"
            )
            for i in indices
        ]

        base = self.sim.now
        for action in self.schedule.sorted_actions():
            self.sim.run(until=base + action.at_us)
            try:
                controller.apply(action)
            except InvariantViolation as exc:
                self._fail(str(exc))
            self._check_monitor(monitor)

        # Let the tail of the schedule play out, then require recovery.
        self.sim.run(until=base + self.schedule.duration_us + self.settle_us)
        self._check_monitor(monitor)
        controller.heal_everything()
        self._require(
            "post-schedule liveness",
            cluster.wait_until_serving(self.liveness_timeout_us),
            self.liveness_timeout_us,
        )

        # Stop the workload, then verify every key with fresh reads
        # through a patient client on the same host.
        self.stop_clients = True
        for worker in workers:
            self.sim.run_until_settled(worker, deadline=self.sim.now + 2 * SEC)
        for i, client in enumerate(clients):
            patient = booted.client(name=f"chaos-c{i}", max_rounds=200, **_CLIENT)
            self._require(
                f"read-back (client {i})", client.read_back(keys[i], patient), 10 * SEC
            )
        monitor.stop()
        self._check_monitor(monitor)

        strict = (
            self.check_linearizability
            if self.check_linearizability is not None
            else cluster.durable_across_crash
        )
        try:
            if strict:
                check_linearizable(self.history)
            else:
                check_no_phantoms(self.history)
        except InvariantViolation as exc:
            self._fail(str(exc))

        result = ChaosResult(
            seed=self.seed,
            trace=tuple(self.trace),
            ops=len(self.history.ops),
            acked_puts=sum(client.acked_puts for client in clients),
            failed_ops=sum(client.failures for client in clients),
            leader_terms=tuple(sorted(monitor.by_term.items())),
            max_simultaneous_leaders=monitor.max_simultaneous,
        )
        if obs_state.REGISTRY is not None:
            registry = obs_state.REGISTRY
            registry.gauge("chaos.ops").set(result.ops)
            registry.gauge("chaos.acked_puts").set(result.acked_puts)
            registry.gauge("chaos.failed_ops").set(result.failed_ops)
            registry.gauge("chaos.injections").set(len(result.trace))
            registry.gauge("chaos.max_simultaneous_leaders").set(
                result.max_simultaneous_leaders
            )
            publish_run(registry, self.fabric, self.cluster)
        return result
