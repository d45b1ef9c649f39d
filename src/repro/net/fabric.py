"""The network fabric: host registry, delivery, partitions.

The fabric is deliberately thin: given a source host, a destination host,
a payload size and a latency model it either schedules a delivery callback
or reports the destination unreachable.  Reachability is evaluated **at
send time and again at arrival time**, so a message in flight when its
destination crashes is lost, exactly as on a real network.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set

from repro.net.errors import HostDown, Unreachable
from repro.net.host import Host
from repro.net.latency import LatencyModel, LinearLatency
from repro.obs import state as obs_state
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RngStreams

__all__ = ["Fabric", "Verdict"]


class Verdict(NamedTuple):
    """An interceptor's ruling on one in-flight message.

    Interceptors (installed by the fault-injection layer, see
    :mod:`repro.chaos`) are consulted per message and may drop it,
    delay it, or deliver extra copies.  ``duplicate_gap_us`` spaces the
    copies so they arrive as distinct events.
    """

    drop: bool = False
    extra_delay_us: float = 0.0
    duplicates: int = 0
    duplicate_gap_us: float = 1.0


PASS = Verdict()
"""The default ruling: deliver the message untouched."""


Interceptor = Callable[[str, str, int, str], Verdict]
"""``(src, dst, size_bytes, stream) -> Verdict``."""


class Fabric:
    """Connects hosts; samples latencies; enforces partitions."""

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[RngStreams] = None,
        default_latency: Optional[LatencyModel] = None,
    ):
        self.sim = sim
        self.rng = rng if rng is not None else RngStreams(seed=0)
        self.default_latency = default_latency or LinearLatency(base_us=5.0)
        self.hosts: Dict[str, Host] = {}
        self._blocked_pairs: Set[FrozenSet[str]] = set()
        self._blocked_oneway: Set[tuple] = set()
        self._isolated: Set[str] = set()
        self._interceptors: List[Interceptor] = []
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0

    # -- topology ------------------------------------------------------------

    def add_host(self, name: str, cores: int = 1) -> Host:
        """Create and register a host."""
        if name in self.hosts:
            raise ValueError(f"duplicate host name: {name}")
        host = Host(self.sim, name, cores=cores)
        host.fabric = self
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Look up a registered host."""
        return self.hosts[name]

    # -- partitions ------------------------------------------------------------

    def block(self, a: str, b: str) -> None:
        """Drop all traffic between hosts *a* and *b* until unblocked."""
        self._blocked_pairs.add(frozenset((a, b)))

    def unblock(self, a: str, b: str) -> None:
        """Restore traffic between hosts *a* and *b*."""
        self._blocked_pairs.discard(frozenset((a, b)))

    def block_oneway(self, src: str, dst: str) -> None:
        """Drop traffic *from* src *to* dst only (asymmetric partition).

        Real RDMA deployments see these when one switch port loses its
        transmit lane or an ACL is misconfigured: A's verbs to B vanish
        while B still reaches A.
        """
        self._blocked_oneway.add((src, dst))

    def unblock_oneway(self, src: str, dst: str) -> None:
        """Restore the src -> dst direction."""
        self._blocked_oneway.discard((src, dst))

    def isolate(self, name: str) -> None:
        """Cut a host off from everyone (asymmetric partitions via block())."""
        self._isolated.add(name)

    def rejoin(self, name: str) -> None:
        """Undo :meth:`isolate`."""
        self._isolated.discard(name)

    def heal(self) -> None:
        """Remove every partition."""
        self._blocked_pairs.clear()
        self._blocked_oneway.clear()
        self._isolated.clear()

    # -- message interception --------------------------------------------------

    def add_interceptor(self, interceptor: Interceptor) -> Interceptor:
        """Install a per-message fault hook; returns it for later removal.

        With no interceptors installed, :meth:`deliver` is byte-for-byte
        identical to the un-instrumented fabric (no extra RNG draws), so
        experiments that inject only crashes reproduce their exact
        pre-chaos schedules.
        """
        self._interceptors.append(interceptor)
        return interceptor

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        """Uninstall a previously added interceptor (no-op if absent)."""
        try:
            self._interceptors.remove(interceptor)
        except ValueError:
            pass

    def _intercept(self, src: str, dst: str, size_bytes: int, stream: str) -> Verdict:
        drop = False
        extra = 0.0
        duplicates = 0
        gap = 1.0
        for interceptor in self._interceptors:
            verdict = interceptor(src, dst, size_bytes, stream)
            if verdict is None:
                continue
            drop = drop or verdict.drop
            extra += verdict.extra_delay_us
            duplicates += verdict.duplicates
            gap = verdict.duplicate_gap_us
        return Verdict(drop, extra, duplicates, gap)

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a message sent now from *src* would arrive at *dst*."""
        dst_host = self.hosts.get(dst)
        return dst_host is not None and self.can_reach(src, dst_host)

    def can_reach(self, src: str, dst: Host) -> bool:
        """:meth:`reachable` for a caller that already holds the
        destination: no lookup by name, and a host this fabric never
        registered is refused."""
        if dst.fabric is not self or not dst.alive:
            return False
        # Partition state is empty in the vast majority of experiments.
        if self._isolated or self._blocked_pairs or self._blocked_oneway:
            return not self._severed(src, dst.name)
        return True

    def _severed(self, src: str, dst: str) -> bool:
        return (
            src in self._isolated
            or dst in self._isolated
            or frozenset((src, dst)) in self._blocked_pairs
            or (src, dst) in self._blocked_oneway
        )

    # -- delivery ------------------------------------------------------------

    def deliver(
        self,
        src: Host,
        dst: Host,
        size_bytes: int,
        on_arrival: Callable[..., Any],
        *args: Any,
        latency: Optional[LatencyModel] = None,
        stream: str = "net",
        delay: Optional[float] = None,
    ) -> bool:
        """Schedule ``on_arrival(*args)`` at *dst* after a sampled latency.

        A caller that already sampled the one-way latency (the RDMA NIC,
        which clamps it for in-order delivery) passes it as *delay* and
        nothing is drawn here.  Returns False (and delivers nothing)
        when the destination is unreachable at send time; a destination
        that dies in flight silently swallows the message.
        """
        if not src.alive:
            raise HostDown(f"send from dead host {src.name}")
        # can_reach(), inlined: this and _arrive run once per message.
        if dst.fabric is not self or not dst.alive:
            return False
        if (
            self._isolated or self._blocked_pairs or self._blocked_oneway
        ) and self._severed(src.name, dst.name):
            return False
        if delay is None:
            model = latency or self.default_latency
            delay = model.sample(self.rng.stream(stream), size_bytes)
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter("net.messages", stream=stream).inc()
            obs_state.REGISTRY.counter("net.bytes", stream=stream).inc(size_bytes)
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "net.send",
                self.sim.now,
                src=src.name,
                dst=dst.name,
                bytes=size_bytes,
                stream=stream,
            )
        verdict = None
        if self._interceptors:
            verdict = self._intercept(src.name, dst.name, size_bytes, stream)
            if verdict.drop:
                # The sender believes the send succeeded; the message is
                # lost in flight (silent, exactly like an in-flight crash).
                self.messages_dropped += 1
                if obs_state.REGISTRY is not None:
                    obs_state.REGISTRY.counter("net.dropped", stream=stream).inc()
                return True
            delay += verdict.extra_delay_us
        self.sim.schedule(
            delay, self._arrive, src.name, dst, dst.incarnation, on_arrival, args
        )
        if verdict is not None:
            for copy in range(verdict.duplicates):
                self.messages_duplicated += 1
                self.sim.schedule(
                    delay + (copy + 1) * verdict.duplicate_gap_us,
                    self._arrive,
                    src.name,
                    dst,
                    dst.incarnation,
                    on_arrival,
                    args,
                )
        return True

    def _arrive(
        self,
        src_name: str,
        dst: Host,
        dst_incarnation: int,
        on_arrival: Callable[..., Any],
        args: tuple,
    ) -> None:
        if not dst.alive or dst.incarnation != dst_incarnation:
            return  # crashed (or crashed+restarted) while in flight
        if (
            self._isolated or self._blocked_pairs or self._blocked_oneway
        ) and self._severed(src_name, dst.name):
            return  # partition formed while in flight
        on_arrival(*args)

    def round_trip(
        self,
        src: Host,
        dst: Host,
        request_bytes: int,
        response_bytes: int,
        latency: Optional[LatencyModel] = None,
        stream: str = "net",
    ) -> Event:
        """A fire-and-forget request/response pair with no remote CPU.

        Used by substrates whose remote side is passive.  The returned
        event fails with :class:`Unreachable` if either direction is cut.
        """
        done = Event(self.sim)

        def respond() -> None:
            if not self.deliver(
                dst,
                src,
                response_bytes,
                done.try_trigger,
                None,
                latency=latency,
                stream=stream,
            ):
                done.try_fail(Unreachable(f"{dst.name} -> {src.name}"))

        if not self.deliver(src, dst, request_bytes, respond, latency=latency, stream=stream):
            done.try_fail(Unreachable(f"{src.name} -> {dst.name}"))
        return done
