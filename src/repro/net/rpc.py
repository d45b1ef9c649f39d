"""Client/coordinator RPC channel.

Models the paper's "custom select-based RPC over TCP library" used
between clients and servers in *all* evaluated systems (§6.2).  An RPC
costs a network round trip on the TCP-path latency profile plus receive
and send CPU charges on the server; the constants are calibrated in
:mod:`repro.bench.calibration` so that roughly 50 µs of each request is
attributable to this layer, matching §6.3.3.

Handlers are either plain functions (``payload -> reply``) or generator
functions that may yield simulation events and ``return`` the reply.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.net.errors import RpcTimeout, Unreachable
from repro.net.fabric import Fabric
from repro.net.host import Host
from repro.net.latency import LatencyModel, LinearLatency
from repro.obs import state as obs_state
from repro.sim.engine import Event

__all__ = ["RpcEndpoint", "RpcClient", "Reply", "DEFAULT_RPC_LATENCY"]

DEFAULT_RPC_LATENCY = LinearLatency(base_us=15.0, jitter=0.05)
"""Kernel TCP path: ~15 µs one way before serialisation, with jitter."""


class Reply(NamedTuple):
    """A handler's reply with an explicit wire size."""

    value: Any
    size_bytes: int = 64


class _Call:
    """One RPC in flight: what the server sees of it (``method``,
    ``payload``, :meth:`respond` / :meth:`fail`)."""

    __slots__ = ("client", "server", "method", "payload", "done", "trace")

    def __init__(self, client: "RpcClient", server: Host, method: str, payload: Any):
        self.client = client
        self.server = server
        self.method = method
        self.payload = payload
        self.done = Event(client.host.sim)
        #: Client-side span for the call, threaded across the wire so the
        #: server-side handler (and everything it spawns) parents under the
        #: same operation tree.  None when tracing is off.
        self.trace: Optional[Any] = None

    def respond(self, value: Any, size_bytes: int) -> None:
        self._reply(size_bytes, self.done.try_trigger, value)

    def fail(self, exc: BaseException) -> None:
        self._reply(64, self.done.try_fail, exc)

    def _reply(self, size_bytes: int, complete: Callable, outcome: Any) -> None:
        client = self.client
        client.fabric.deliver(
            self.server,
            client.host,
            size_bytes,
            complete,
            outcome,
            latency=client.latency,
            stream="rpc",
        )

    def finish_span(self, event: Event) -> None:
        self.trace.annotate(ok=event.ok)
        self.trace.finish(self.client.host.sim.now)


class RpcEndpoint:
    """Server side: a set of method handlers bound to a host."""

    def __init__(
        self,
        host: Host,
        fabric: Fabric,
        name: str = "rpc",
        recv_cpu_us: float = 8.0,
        send_cpu_us: float = 5.0,
    ):
        self.host = host
        self.fabric = fabric
        self.name = name
        self.recv_cpu_us = recv_cpu_us
        self.send_cpu_us = send_cpu_us
        self._handlers: Dict[str, Callable[[Any], Any]] = {}
        host.services[f"rpc:{name}"] = self

    def register(self, method: str, handler: Callable[[Any], Any]) -> None:
        """Install *handler* for *method* (replacing any previous one)."""
        self._handlers[method] = handler

    def unregister(self, method: str) -> None:
        """Remove a handler; subsequent calls fail at the client by timeout."""
        self._handlers.pop(method, None)

    # Called by RpcClient on message arrival (host liveness already checked
    # by the fabric's delivery path).
    def _receive(self, request: _Call) -> None:
        handler = self._handlers.get(request.method)
        if handler is None:
            return  # unknown method: silently dropped, client times out
        tracer = obs_state.TRACER
        if (
            tracer is not None
            and request.trace is not None
            and request.trace.tracer is tracer
        ):
            # Re-establish the caller's span context so the handler
            # process (and everything it spawns) joins the same tree.
            prev = tracer.current
            tracer.current = request.trace
            try:
                tracer.instant(
                    "rpc.recv",
                    self.host.sim.now,
                    node=self.host.name,
                    method=request.method,
                )
                self.host.spawn(
                    self._serve(handler, request), name=f"rpc.{request.method}"
                )
            finally:
                tracer.current = prev
        else:
            self.host.spawn(self._serve(handler, request), name=f"rpc.{request.method}")

    def _serve(self, handler: Callable[[Any], Any], request: _Call):
        try:
            # recv and send CPU are charged together: one queueing decision
            # per request instead of two (identical mean service time).
            yield self.host.execute(self.recv_cpu_us + self.send_cpu_us)
            result = handler(request.payload)
            if inspect.isgenerator(result):
                result = yield from result  # drive the handler inline
        except Exception as exc:  # modelled failure inside the handler
            request.fail(exc)
            return
        tracer = obs_state.TRACER
        if (
            tracer is not None
            and request.trace is not None
            and request.trace.tracer is tracer
        ):
            # Milestone: the handler is done and the reply leaves the
            # server; closes the "apply" stage in critical-path analysis.
            tracer.instant(
                "rpc.reply",
                self.host.sim.now,
                node=self.host.name,
                method=request.method,
            )
        if isinstance(result, Reply):
            request.respond(result.value, result.size_bytes)
        else:
            request.respond(result, 64)


class RpcClient:
    """Client side: issues calls to an endpoint and awaits replies."""

    def __init__(
        self,
        host: Host,
        fabric: Fabric,
        latency: Optional[LatencyModel] = None,
        request_overhead_bytes: int = 64,
    ):
        self.host = host
        self.fabric = fabric
        self.latency = latency or DEFAULT_RPC_LATENCY
        self.request_overhead_bytes = request_overhead_bytes

    def call(
        self,
        endpoint: RpcEndpoint,
        method: str,
        payload: Any = None,
        payload_bytes: int = 0,
        timeout_us: Optional[float] = None,
    ) -> Event:
        """Invoke *method* on *endpoint*; the event carries the reply value.

        Fails with :class:`Unreachable` when the server cannot be reached at
        send time, with :class:`RpcTimeout` when no reply arrives within
        *timeout_us*, or with the handler's own exception.
        """
        call = _Call(self, endpoint.host, method, payload)
        done = call.done
        server = endpoint.host
        size_bytes = self.request_overhead_bytes + payload_bytes
        if obs_state.REGISTRY is not None:
            obs_state.REGISTRY.counter("rpc.calls", method=method).inc()
            obs_state.REGISTRY.counter("rpc.bytes", dir="tx").inc(size_bytes)
        if obs_state.TRACER is not None:
            call.trace = obs_state.TRACER.span(
                f"rpc.{method}",
                self.host.sim.now,
                src=self.host.name,
                dst=server.name,
                bytes=size_bytes,
            )
            done.add_callback(call.finish_span)
        sent = self.fabric.deliver(
            self.host,
            server,
            size_bytes,
            endpoint._receive,
            call,
            latency=self.latency,
            stream="rpc",
        )
        if not sent:
            done.try_fail(Unreachable(f"rpc {self.host.name} -> {server.name}"))
        elif timeout_us is not None:
            self.host.sim.within(done, timeout_us, RpcTimeout, f"{method} after {timeout_us}us")
        return done
