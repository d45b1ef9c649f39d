"""RDMA NIC model.

The requester NIC is the serialisation point for outgoing verbs: payloads
leave at link bandwidth through a single FIFO transmit queue (reusing the
service-queue machinery from :class:`~repro.sim.cpu.CpuPool` with one
server).  Propagation and the remote NIC's fixed per-verb processing are
folded into a small base latency.  The remote *CPU* is never charged —
that is the whole point of one-sided RDMA.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.fabric import Fabric
from repro.net.host import Host
from repro.net.latency import TEN_GBE_BYTES_PER_US, LatencyModel, LinearLatency
from repro.obs import state as obs_state
from repro.rdma.errors import RdmaError, RdmaTimeout
from repro.sim.cpu import CpuPool
from repro.sim.engine import Event

__all__ = ["Rnic", "PostedVerb", "DEFAULT_VERB_TIMEOUT_US"]

DEFAULT_VERB_TIMEOUT_US = 1_000.0
"""Retry-exhaustion budget for a verb against an unreachable peer."""

DEFAULT_PROPAGATION = LinearLatency(base_us=1.5, bytes_per_us=1e12, jitter=0.05)
"""One-way switch+wire+remote-NIC latency, independent of payload size."""


class PostedVerb:
    """One one-sided verb, from staging to completion.

    The record is the verb's whole in-flight state and its life stages
    are its methods, scheduled as bound methods: :meth:`serialised` (left
    the requester's transmit queue) -> :meth:`arrive` (applied at the
    target) -> :meth:`ack_serialised` (response left the target's
    transmit queue) -> :meth:`back` (completion at the requester), under
    a :meth:`~repro.sim.engine.Simulator.within` deadline of
    ``timeout_us`` that fails it with :meth:`exhausted`.

    ``done`` triggers with the verb result or fails with the
    :class:`~repro.rdma.errors.RdmaError` the remote apply raised or an
    :class:`~repro.rdma.errors.RdmaTimeout`.  A verb that fails
    validation at staging carries an already-failed ``done`` and is
    never issued.  *apply_remote* runs atomically at the arrival instant
    on the target and returns the verb result.
    """

    __slots__ = (
        "nic",
        "target",
        "request_bytes",
        "response_bytes",
        "apply_remote",
        "verb",
        "timeout_us",
        "done",
        "span",
    )

    def __init__(
        self,
        nic: "Rnic",
        target: Host,
        request_bytes: int,
        response_bytes: int,
        apply_remote: Optional[Callable[[], object]],
        verb: str,
        timeout_us: Optional[float] = None,
    ):
        self.nic = nic
        self.target = target
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.apply_remote = apply_remote
        self.verb = verb
        self.timeout_us = timeout_us if timeout_us is not None else nic.timeout_us
        self.done = Event(nic.host.sim)
        self.span = None

    def exhausted(self) -> RdmaTimeout:
        return RdmaTimeout(f"verb to {self.target.name} exceeded {self.timeout_us}us")

    def finish_span(self, event: Event) -> None:
        self.span.annotate(ok=event.ok)
        self.span.finish(self.nic.host.sim.now)

    def serialised(self) -> None:
        nic = self.nic
        if not nic.host.alive:
            return  # the requester died with the op still in its tx queue
        if self.span is not None:
            self.span.event("nic.serialised", nic.host.sim.now)
        # Unreachable or in-flight loss is silent: the timeout fires.
        if not self.done.settled:
            nic.ordered_deliver(self.target, self.arrive)

    def arrive(self) -> None:
        done = self.done
        try:
            result = self.apply_remote()
        except RdmaError as exc:
            if self.span is not None:
                self.span.event(
                    "remote.error", self.nic.host.sim.now, error=type(exc).__name__
                )
            self._ack(0, done.try_fail, exc)
            return
        if self.span is not None:
            self.span.event("remote.applied", self.nic.host.sim.now)
        self._ack(self.response_bytes, done.try_trigger, result)

    def _ack(self, payload_bytes: int, complete: Callable, outcome: object) -> None:
        """Return the completion, serialising the response payload through
        the *target's* transmit queue.

        Bulk responses (recovery copy reads, WAL scans) therefore contend
        with the workload's read responses on the memory node's egress
        link — the resource whose saturation produces the Figure 11
        throughput dip."""
        nic = self.nic
        host = nic.host
        target = self.target
        if not nic.fabric.can_reach(target.name, host):
            return
        delay = nic.propagation.sample(nic.rng, 0)
        target_nic: Optional["Rnic"] = target.services.get("rnic")
        if payload_bytes > 0 and target_nic is not None and target.alive:
            target_nic._txq.submit(
                payload_bytes / target_nic.bytes_per_us,
                self.ack_serialised,
                delay,
                host.incarnation,
                complete,
                outcome,
            )
        else:
            host.sim.schedule(
                delay + payload_bytes / nic.bytes_per_us,
                self.back,
                host.incarnation,
                complete,
                outcome,
            )

    def ack_serialised(
        self, delay: float, incarnation: int, complete: Callable, outcome: object
    ) -> None:
        if self.target.alive:
            self.nic.host.sim.schedule(delay, self.back, incarnation, complete, outcome)

    def back(self, incarnation: int, complete: Callable, outcome: object) -> None:
        nic = self.nic
        host = nic.host
        if host.alive and host.incarnation == incarnation and not nic.failed:
            complete(outcome)

    def __repr__(self) -> str:
        return f"<PostedVerb {self.verb} -> {self.target.name} {self.request_bytes}B>"


class Rnic:
    """Per-host RDMA NIC."""

    def __init__(
        self,
        host: Host,
        fabric: Fabric,
        bytes_per_us: float = TEN_GBE_BYTES_PER_US,
        propagation: Optional[LatencyModel] = None,
        verb_overhead_us: float = 0.3,
        timeout_us: float = DEFAULT_VERB_TIMEOUT_US,
    ):
        self.host = host
        self.fabric = fabric
        self.rng = fabric.rng.stream("rdma")
        self.bytes_per_us = bytes_per_us
        self.propagation = propagation or DEFAULT_PROPAGATION
        self.verb_overhead_us = verb_overhead_us
        self.timeout_us = timeout_us
        self._txq = CpuPool(host.sim, 1, name=f"{host.name}.rnic.tx")
        self._last_arrival: Dict[str, float] = {}
        self.verbs_issued = 0
        self.failed = False
        host.services["rnic"] = self

    def on_host_crash(self) -> None:
        """Drop queued transmissions; in-service ones are dropped on exit."""
        self._txq.drain()

    # -- fault injection -------------------------------------------------------

    def fail_queues(self) -> None:
        """Push every queue pair on this NIC into the error state.

        Models a NIC/port fault without a host crash: outgoing verbs are
        silently lost from this instant (requesters see retry-exhaustion
        timeouts), while the host's CPU keeps running.  Mirrors an RC QP
        transitioning to the IB error state.
        """
        self.failed = True
        self._txq.drain()

    def restore_queues(self) -> None:
        """Recover the NIC; subsequent verbs flow again.

        Connections themselves are not re-established here — protocol
        layers observe the timeouts and reconnect, exactly as they do
        after a crash-induced QP loss.
        """
        self.failed = False

    def ordered_deliver(
        self, target: Host, on_arrival: Callable[..., None], *args
    ) -> None:
        """Deliver with RC in-order semantics toward *target*.

        Reliable connections never reorder within a queue pair; latency
        jitter alone could, so arrival times toward each target are
        clamped to be monotonically increasing.
        """
        if not self.host.alive or self.failed:
            return
        now = self.host.sim.now
        arrival = now + self.propagation.sample(self.rng, 0)
        last = self._last_arrival.get(target.name, 0.0)
        if last > arrival:
            arrival = last
        self._last_arrival[target.name] = arrival
        self.fabric.deliver(
            self.host, target, 0, on_arrival, *args, stream="rdma", delay=arrival - now
        )

    def transfer(
        self,
        target: Host,
        request_bytes: int,
        response_bytes: int,
        apply_remote: Callable[[], object],
        timeout_us: Optional[float] = None,
        verb: str = "verb",
    ) -> Event:
        """Issue one verb: serialise, propagate, apply remotely, ack back.

        *apply_remote* runs atomically at the arrival instant on the target
        and returns the verb result; raising :class:`RdmaError` there turns
        the ack into an error completion.  The returned event triggers with
        the result or fails with the error / :class:`RdmaTimeout`.
        *verb* labels the transfer for observability (read / write / cas).
        """
        return self.post(
            PostedVerb(
                self, target, request_bytes, response_bytes, apply_remote, verb, timeout_us
            )
        )

    def post(self, staged: PostedVerb) -> Event:
        """Issue one staged verb: arm its retry-exhaustion deadline,
        count it and queue it for transmission; returns its ``done``.
        A verb already refused at staging is not issued."""
        done = staged.done
        if done.settled:
            return done
        self.host.sim.within(done, staged.timeout_us, staged.exhausted)
        self.verbs_issued += 1
        registry = obs_state.REGISTRY
        if registry is not None:
            registry.counter("rdma.verbs", type=staged.verb).inc()
            registry.counter("rdma.bytes", dir="tx").inc(staged.request_bytes)
            registry.counter("rdma.bytes", dir="rx").inc(staged.response_bytes)
        if obs_state.TRACER is not None:
            staged.span = obs_state.TRACER.span(
                f"rdma.{staged.verb}",
                self.host.sim.now,
                src=self.host.name,
                dst=staged.target.name,
                req_bytes=staged.request_bytes,
                resp_bytes=staged.response_bytes,
            )
            done.add_callback(staged.finish_span)
        self._txq.submit(
            staged.request_bytes / self.bytes_per_us + self.verb_overhead_us,
            staged.serialised,
        )
        return done
