"""The schedule oracle: the all-heap engine the shipped one is checked against.

This is the straightforward implementation of the simulator that
:mod:`repro.sim.engine` optimises: one ``(time, seq, fn, args)`` heap,
list-of-callbacks events, recursive process stepping, no cancellation
(``schedule`` returns nothing and ``cancel`` refuses, so a guard timer
fires later as a no-op) and a 1 ms-stepped ``run_until_settled``.  It
is the executable specification of the dispatch order: the tests in
``tests/test_sim_fastpath.py`` drive identical schedules, and a whole
Sift cluster, through both engines and require identical traces.  It
lives with the tests because the package ships one engine.

Do not optimise this module; its value is being obviously correct.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.obs import state as obs_state
from repro.sim import engine as _fast

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "ProcessKilled",
    "SimulationError",
    "Simulator",
    "AnyOf",
    "AllOf",
    "QuorumEvent",
    "all_of",
    "any_of",
    "quorum",
]


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused (not a modelled fault)."""


class ProcessKilled(Exception):
    """Thrown into a process generator when :meth:`Process.kill` is called."""


class Event:
    """A one-shot waitable condition.

    An event starts *pending* and settles exactly once, either by
    :meth:`trigger` (with a value) or :meth:`fail` (with an exception).
    Processes wait on an event by ``yield``-ing it; other code can attach
    callbacks directly with :meth:`add_callback`.
    """

    __slots__ = ("sim", "_callbacks", "_settled", "_ok", "_value", "_exc")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: List[Callable[["Event"], None]] = []
        self._settled = False
        self._ok = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    # -- state -----------------------------------------------------------

    @property
    def settled(self) -> bool:
        """True once the event has triggered or failed."""
        return self._settled

    @property
    def ok(self) -> bool:
        """True if the event settled successfully."""
        return self._settled and self._ok

    @property
    def failed(self) -> bool:
        """True if the event settled with an exception."""
        return self._settled and not self._ok

    @property
    def value(self) -> Any:
        """The success value (only meaningful when :attr:`ok`)."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception (only meaningful when :attr:`failed`)."""
        return self._exc

    # -- settling --------------------------------------------------------

    def trigger(self, value: Any = None) -> "Event":
        """Settle the event successfully with *value*."""
        if self._settled:
            raise SimulationError("event already settled")
        self._settled = True
        self._ok = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Settle the event with an exception; waiters will have it raised."""
        if self._settled:
            raise SimulationError("event already settled")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._settled = True
        self._ok = False
        self._exc = exc
        self._dispatch()
        return self

    def try_trigger(self, value: Any = None) -> bool:
        """Trigger unless already settled; returns whether it took effect."""
        if self._settled:
            return False
        self.trigger(value)
        return True

    def try_fail(self, exc: BaseException) -> bool:
        """Fail unless already settled; returns whether it took effect."""
        if self._settled:
            return False
        self.fail(exc)
        return True

    # -- waiting ---------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Invoke *fn(event)* when the event settles (immediately if it has)."""
        if self._settled:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(sim)
        self.delay = delay
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        # A timeout can race with explicit settling (e.g. cancellation).
        self.try_trigger(value)

    def cancel(self) -> bool:
        # Pre-fast-path behaviour: timers cannot be cancelled; the owner
        # just drops its reference and _fire later no-ops via try_trigger.
        return False


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process: a generator that yields :class:`Event` objects.

    The process itself is an event — it triggers with the generator's
    return value, or fails with the generator's uncaught exception.  A
    process whose failure nobody observes (no callbacks attached when it
    dies) aborts the simulation; this turns silent protocol bugs into
    loud test failures.
    """

    __slots__ = ("_gen", "name", "_waiting_on", "span")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: Span context the process runs under on traced runs; inherited
        #: from the spawner's ambient context, None when tracing is off.
        self.span = None
        # Start the process asynchronously at the current time.
        sim.schedule(0.0, self._step_ctx, None, None)

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._settled

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process.

        Used for crash injection.  Killing an already-finished process is a
        no-op.  The process event *fails* with :class:`ProcessKilled`, which
        joiners must be prepared to handle; a killed process that nobody is
        joined on is cleaned up silently.
        """
        if self._settled:
            return
        self._waiting_on = None
        try:
            self._gen.throw(ProcessKilled(reason))
        except (ProcessKilled, StopIteration):
            pass
        except BaseException:
            # The generator used the kill for cleanup and raised something
            # else; treat as terminated regardless (a crashed node's
            # processes cannot signal anyone).
            pass
        finally:
            self._gen.close()
        if not self._settled:
            self._settled = True
            self._ok = False
            self._exc = ProcessKilled(reason)
            self._dispatch()

    # -- generator driving -------------------------------------------------

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self._settled:  # killed while a resume was already scheduled
            return
        self._waiting_on = None
        try:
            if throw_exc is not None:
                target = self._gen.throw(throw_exc)
            else:
                target = self._gen.send(send_value)
        except StopIteration as stop:
            self.try_trigger(stop.value)
            return
        except ProcessKilled:
            if not self._settled:
                self._settled = True
                self._ok = False
                self._exc = ProcessKilled("killed")
                self._dispatch()
            return
        except BaseException as exc:
            self._on_crash(exc)
            return
        # Model code builds events via `from repro.sim.engine import Event`,
        # so when this oracle loop drives it the yielded objects are
        # shipped-engine events (they are self-contained and engine-agnostic).
        if not isinstance(target, (Event, _fast.Event)):
            self._on_crash(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes may only yield Event instances"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def _step_ctx(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        """Step the generator under this process's span context.

        Mirrors the shipped engine: on traced runs the tracer's ambient
        :attr:`Tracer.current` is swapped to :attr:`span` around the
        step and restored afterwards; with tracing off this is a single
        ``is None`` check in front of :meth:`_step`.
        """
        tracer = obs_state.TRACER
        if tracer is None:
            self._step(send_value, throw_exc)
            return
        prev = tracer.current
        tracer.current = self.span
        try:
            self._step(send_value, throw_exc)
        finally:
            tracer.current = prev

    def _resume(self, event: Event) -> None:
        if self._settled:
            return
        if event is not self._waiting_on:
            return  # stale callback from an event we no longer wait on
        if obs_state.TRACER is not None:
            if event.ok:
                self._step_ctx(event.value, None)
            else:
                self._step_ctx(None, event.exception)
        elif event.ok:
            self._step(event.value, None)
        else:
            self._step(None, event.exception)

    def _on_crash(self, exc: BaseException) -> None:
        self._settled = True
        self._ok = False
        self._exc = exc
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "proc.crash", self.sim.now, process=self.name, error=type(exc).__name__
            )
        had_waiters = bool(self._callbacks)
        self._dispatch()
        if not had_waiters:
            self.sim._report_unhandled(self, exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else ("ok" if self.ok else "failed")
        return f"<Process {self.name} {state}>"


class AnyOf(Event):
    """Triggers when the first child event settles (success or failure)."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise SimulationError("any_of() requires at least one event")
        for index, event in enumerate(self.events):
            event.add_callback(lambda ev, i=index: self._child_settled(i, ev))

    def _child_settled(self, index: int, event: Event) -> None:
        if event.ok:
            self.try_trigger((index, event.value))
        else:
            self.try_fail(event.exception)


class AllOf(Event):
    """Triggers when every child succeeded; fails on the first child failure."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.trigger([])
            return
        for event in self.events:
            event.add_callback(self._child_settled)

    def _child_settled(self, event: Event) -> None:
        if self._settled:
            return
        if event.failed:
            self.try_fail(event.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger([ev.value for ev in self.events])


class QuorumError(Exception):
    """Raised when a quorum can no longer be reached."""

    def __init__(self, needed: int, failures: List[BaseException]):
        self.needed = needed
        self.failures = failures
        super().__init__(
            f"quorum of {needed} unreachable ({len(failures)} child failures)"
        )


class QuorumEvent(Event):
    """Triggers when *k* of the child events have succeeded.

    This models "wait for a majority of RDMA acknowledgements": late
    completions are ignored, and the event fails only when more than
    ``n - k`` children have failed, making the quorum impossible.
    The success value is a list of ``(index, value)`` pairs for the first
    *k* successes in settle order.
    """

    __slots__ = ("events", "needed", "_successes", "_failures")

    def __init__(self, sim: "Simulator", events: Iterable[Event], needed: int):
        super().__init__(sim)
        self.events = list(events)
        self.needed = needed
        self._successes: List[Tuple[int, Any]] = []
        self._failures: List[BaseException] = []
        if needed <= 0:
            self.trigger([])
            return
        if needed > len(self.events):
            raise SimulationError(
                f"quorum of {needed} impossible with {len(self.events)} events"
            )
        for index, event in enumerate(self.events):
            event.add_callback(lambda ev, i=index: self._child_settled(i, ev))

    def _child_settled(self, index: int, event: Event) -> None:
        if self._settled:
            return
        if event.ok:
            self._successes.append((index, event.value))
            if len(self._successes) >= self.needed:
                self.trigger(list(self._successes))
        else:
            self._failures.append(event.exception)
            if len(self._failures) > len(self.events) - self.needed:
                self.fail(QuorumError(self.needed, list(self._failures)))


class Simulator:
    """The event loop: a priority queue of timestamped callbacks."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._unhandled: List[Tuple[Process, BaseException]] = []

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* microseconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, fn, args))

    def cancel(self, entry: Any) -> bool:
        # Pre-fast-path behaviour: entries cannot be cancelled (schedule
        # returns None); the guard fires later as a no-op.
        return False

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* microseconds."""
        return Timeout(self, delay, value)

    def spawn(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from a generator."""
        process = Process(self, gen, name)
        tracer = obs_state.TRACER
        if tracer is not None:
            process.span = tracer.current
            tracer.instant("proc.spawn", self._now, process=process.name)
        return process

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches *until*.

        Returns the clock value at exit.  Raises :class:`SimulationError`
        if any process died of an unobserved exception.
        """
        while self._queue:
            time, _seq, fn, args = self._queue[0]
            if until is not None and time > until:
                self._now = until
                break
            heapq.heappop(self._queue)
            self._now = time
            fn(*args)
            if self._unhandled:
                process, exc = self._unhandled[0]
                raise SimulationError(
                    f"process {process.name!r} died of an unhandled exception"
                ) from exc
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now

    def run_until_settled(
        self, event: Event, deadline: float, step: float = 1_000.0
    ) -> bool:
        """Advance time until *event* settles or *deadline* passes.

        Unlike ``run(until=deadline)`` this stops as soon as the event
        settles, which matters when perpetual background activity
        (heartbeats) would otherwise keep the clock running to the
        deadline.  Returns whether the event settled.
        """
        while not event.settled and self._now < deadline:
            self.run(until=min(self._now + step, deadline))
        return event.settled

    def run_process(self, gen: ProcessGenerator, name: str = "") -> Any:
        """Spawn *gen*, run the simulation, and return the process result."""
        process = self.spawn(gen, name)
        self.run()
        if not process.settled:
            raise SimulationError(
                f"process {name or 'process'} never finished (deadlock?)"
            )
        if process.failed:
            raise process.exception
        return process.value

    def _report_unhandled(self, process: Process, exc: BaseException) -> None:
        self._unhandled.append((process, exc))


def any_of(sim: Simulator, events: Iterable[Event]) -> AnyOf:
    """Wait for the first of *events* to settle."""
    return AnyOf(sim, events)


def all_of(sim: Simulator, events: Iterable[Event]) -> AllOf:
    """Wait for all of *events* to succeed."""
    return AllOf(sim, events)


def quorum(sim: Simulator, events: Iterable[Event], needed: int) -> QuorumEvent:
    """Wait for *needed* of *events* to succeed (majority-ack primitive)."""
    return QuorumEvent(sim, events, needed)
