"""ChaosRunner: compose a fault schedule with a workload and check it.

One run = one fresh simulator.  The runner

1. builds the cluster from a ``build(fabric)`` callable with RNG streams
   derived from *seed*,
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

from repro.bench.lincheck import History, Op
from repro.chaos.adapters import ChaosController, adapter_for
from repro.chaos.invariants import (
    InvariantViolation,
    LeaderMonitor,
    check_linearizable,
    check_no_phantoms,
)
from repro.chaos.schedule import FaultSchedule
from repro.kv.client import KvClient, KvRequestFailed
from repro.net.fabric import Fabric
from repro.obs import state as obs_state
from repro.obs.flight import FlightRecorder, maybe_postmortem
from repro.obs.publish import publish_run
from repro.obs.trace import set_tracer
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS, SEC

__all__ = ["ChaosError", "ChaosResult", "ChaosRunner"]


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


def _client_class(cluster):
    """KvClient for single-group systems, ShardRouter for the sharded
    service (a plain KvClient would ignore key ownership and write a
    key to whichever shard's coordinator answers first)."""
    if cluster.ring is not None:
        from repro.shard.router import ShardRouter

        return ShardRouter
    return KvClient


class _ChaosClient:
    """One closed-loop client owning a private key set.

    Single-writer-per-key keeps per-key histories small (the Wing-Gong
    checker is exponential) and makes "the acked value must survive"
    unambiguous.  Failed calls are recorded as pending ops — the checker
    treats them as "may have happened at any later point", which is
    exactly the semantics of a timed-out request still in flight.
    """

    def __init__(self, runner: "ChaosRunner", index: int):
        self.runner = runner
        self.index = index
        host = runner.fabric.add_host(f"chaos-c{index}", cores=2)
        self.kv = _client_class(runner.cluster)(
            host,
            runner.fabric,
            runner.cluster,
            request_timeout_us=10 * MS,
            max_rounds=6,
            retry_backoff_us=5 * MS,
        )
        self.rng = runner.fabric.rng.stream(f"chaos:client:{index}")
        self.keys = [
            b"c%d-k%d" % (index, k) for k in range(runner.keys_per_client)
        ]
        self.sequence = 0
        self.done = False

    def loop(self):
        runner = self.runner
        while not runner.stop_clients:
            key = self.keys[self.sequence % len(self.keys)]
            write = self.rng.random() < runner.write_fraction
            if write:
                self.sequence += 1
                value = b"c%d:%d" % (self.index, self.sequence)
                yield from self._record("put", key, value, self.kv.put(key, value))
            else:
                yield from self._record("get", key, None, self.kv.get(key))
            yield runner.sim.timeout(runner.op_gap_us)
        self.done = True

    def read_back(self):
        """Final verification reads with a patient client."""
        patient = _client_class(self.runner.cluster)(
            self.kv.host,
            self.runner.fabric,
            self.runner.cluster,
            request_timeout_us=10 * MS,
            max_rounds=200,
            retry_backoff_us=5 * MS,
        )
        for key in self.keys:
            yield from self._record("get", key, None, patient.get(key))

    def _record(self, kind: str, key: bytes, value, call):
        invoked = self.runner.sim.now
        try:
            result = yield from call
        except KvRequestFailed:
            self.runner.history.record(Op(key, kind, value, invoked, None))
            self.runner.failed_ops += 1
            return
        responded = self.runner.sim.now
        if kind == "get":
            value = result
        else:
            self.runner.acked_puts += 1
        self.runner.history.record(Op(key, kind, value, invoked, responded))


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
        self.sim: Simulator = None  # type: ignore[assignment]
        self.fabric: Fabric = None  # type: ignore[assignment]
        self.cluster = None
        self.history = History()
        self.acked_puts = 0
        self.failed_ops = 0
        self.stop_clients = False

    # -- internals ---------------------------------------------------------------

    def _fail(self, message: str, trace) -> None:
        path = maybe_postmortem(
            f"chaos {message}",
            extra={
                "seed": self.seed,
                "trace": [[t, label] for t, label in trace],
            },
        )
        if path is not None:
            message = f"{message}\n  postmortem: {path}"
        raise ChaosError(message, self.seed, tuple(trace))

    def _await(self, gen, deadline_us: float, what: str, trace) -> None:
        process = self.sim.spawn(gen, name=f"chaos-{what}")
        process.add_callback(lambda _ev: None)  # outcome inspected below
        self.sim.run_until_settled(process, deadline=self.sim.now + deadline_us)
        if not process.settled or process.failed:
            reason = process.exception if process.settled else "never settled"
            self._fail(f"{what} failed: {reason}", trace)

    def _check_monitor(self, monitor: LeaderMonitor, trace) -> None:
        monitor.observe()
        if monitor.violations:
            self._fail(
                "leader uniqueness violated: " + "; ".join(monitor.violations), trace
            )

    # -- the run -----------------------------------------------------------------

    def run(self) -> ChaosResult:
        """Run the schedule with a flight recorder installed.

        Unless the caller already traces, a bounded :class:`FlightRecorder`
        rides along for the whole run (zero schedule perturbation, O(ring)
        memory) so any invariant failure can dump its final moments via
        :func:`repro.obs.flight.maybe_postmortem`.
        """
        owns_recorder = obs_state.TRACER is None
        previous = set_tracer(FlightRecorder()) if owns_recorder else None
        try:
            return self._run()
        finally:
            if owns_recorder:
                set_tracer(previous)

    def _run(self) -> ChaosResult:
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, rng=RngStreams(seed=self.seed))
        self.cluster = self.build(self.fabric)
        adapter = adapter_for(self.cluster)
        controller = ChaosController(adapter)
        self.history = History()
        self.acked_puts = 0
        self.failed_ops = 0
        self.stop_clients = False
        trace: List[Tuple[float, str]] = []

        self._await(
            adapter.wait_ready(self.ready_timeout_us),
            self.ready_timeout_us,
            "initial readiness",
            trace,
        )

        monitor = LeaderMonitor(adapter)
        monitor.start()
        clients = [_ChaosClient(self, index) for index in range(self.n_clients)]
        workers = [self.sim.spawn(c.loop(), name=f"chaos-client-{c.index}") for c in clients]

        base = self.sim.now
        for action in self.schedule.sorted_actions():
            self.sim.run(until=base + action.at_us)
            try:
                controller.apply(action)
            except InvariantViolation as exc:
                self._fail(str(exc), trace)
            trace.append((self.sim.now, action.label))
            self._check_monitor(monitor, trace)

        # Let the tail of the schedule play out, then require recovery.
        self.sim.run(until=base + self.schedule.duration_us + self.settle_us)
        self._check_monitor(monitor, trace)
        controller.heal_everything()
        self._await(
            adapter.wait_ready(self.liveness_timeout_us),
            self.liveness_timeout_us,
            "post-schedule liveness",
            trace,
        )

        # Stop the workload, then verify every key with fresh reads.
        self.stop_clients = True
        for worker in workers:
            self.sim.run_until_settled(worker, deadline=self.sim.now + 2 * SEC)
        for client in clients:
            self._await(
                client.read_back(), 10 * SEC, f"read-back (client {client.index})", trace
            )
        monitor.stop()
        self._check_monitor(monitor, trace)

        strict = (
            self.check_linearizability
            if self.check_linearizability is not None
            else adapter.durable_across_crash
        )
        try:
            if strict:
                check_linearizable(self.history)
            else:
                check_no_phantoms(self.history)
        except InvariantViolation as exc:
            self._fail(str(exc), trace)

        result = ChaosResult(
            seed=self.seed,
            trace=tuple(trace),
            ops=len(self.history.ops),
            acked_puts=self.acked_puts,
            failed_ops=self.failed_ops,
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
