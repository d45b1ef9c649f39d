"""Event loop, events, and generator-based processes.

The engine is deliberately small: an event is a one-shot waitable, a
process is a generator that yields events, and the simulator is a heap of
``(time, seq, callback)`` entries.  Determinism is guaranteed by the
monotonically increasing sequence number used as a tie-breaker, plus the
seeded RNG streams in :mod:`repro.sim.rng` — two runs with the same seed
replay the same schedule exactly.

Fast paths (all preserve the ``(time, seq)`` dispatch order bit-for-bit;
the all-heap oracle lives in ``tests/sim_oracle.py`` and the equivalence
is pinned by ``tests/test_sim_fastpath.py``):

* zero-delay entries go to a FIFO *ready deque* instead of the heap —
  sequence numbers are still allocated from the shared counter, and the
  run loop merges the deque and the heap by ``(time, seq)``, so the
  execution order is identical to an all-heap schedule;
* an event carries a single-callback slot and only allocates the
  overflow list when a second waiter appears (the dominant case is one
  waiter: a process resuming, or a combinator child);
* settling dispatches inline rather than through a
  ``try_trigger -> trigger -> _dispatch`` call chain;
* a :class:`Timeout` can be *lazily cancelled*: its queue entry is
  nulled in place and skipped when popped, and the heap and deque are
  compacted in place when dead entries outnumber live ones —
  heartbeat/election timers that lost their race no longer churn the
  heap;
* ``AnyOf``/``AllOf``/``QuorumEvent`` drop their child-event references
  once settled, so a long-lived combinator does not pin every child
  (and its buffers) for the rest of the run.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.obs import state as obs_state

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

    #: The process that died unobserved, when that is what went wrong.
    process: Optional["Process"] = None


class ProcessKilled(Exception):
    """Thrown into a process generator when :meth:`Process.kill` is called."""


class Event:
    """A one-shot waitable condition.

    An event starts *pending* and settles exactly once, either by
    :meth:`trigger` (with a value) or :meth:`fail` (with an exception).
    Processes wait on an event by ``yield``-ing it; other code can attach
    callbacks directly with :meth:`add_callback`.
    """

    __slots__ = ("sim", "_callback", "_callbacks", "settled", "ok", "_value", "_exc")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callback: Optional[Callable[["Event"], None]] = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        #: True once the event has triggered or failed (read-only for
        #: callers; a plain attribute because every hot path reads it).
        self.settled = False
        #: True once the event has triggered (settled successfully).
        self.ok = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    # -- state -----------------------------------------------------------

    @property
    def failed(self) -> bool:
        """True if the event settled with an exception."""
        return self.settled and not self.ok

    @property
    def value(self) -> Any:
        """The success value (only meaningful when :attr:`ok`)."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception (only meaningful when :attr:`failed`)."""
        return self._exc

    # -- settling --------------------------------------------------------
    # The dispatch body is inlined into each settling method: events are
    # settled millions of times per benchmark run and the three-deep
    # try_trigger -> trigger -> _dispatch call chain showed up in every
    # profile.  Callback order is single slot first, then the overflow
    # list, which is exactly registration order.

    def trigger(self, value: Any = None) -> "Event":
        """Settle the event successfully with *value*."""
        if self.settled:
            raise SimulationError("event already settled")
        self.settled = True
        self.ok = True
        self._value = value
        cb = self._callback
        if cb is not None:
            self._callback = None
            cb(self)
        cbs = self._callbacks
        if cbs is not None:
            self._callbacks = None
            for fn in cbs:
                fn(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Settle the event with an exception; waiters will have it raised."""
        if self.settled:
            raise SimulationError("event already settled")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.settled = True
        self.ok = False
        self._exc = exc
        cb = self._callback
        if cb is not None:
            self._callback = None
            cb(self)
        cbs = self._callbacks
        if cbs is not None:
            self._callbacks = None
            for fn in cbs:
                fn(self)
        return self

    def try_trigger(self, value: Any = None) -> bool:
        """Trigger unless already settled; returns whether it took effect."""
        if self.settled:
            return False
        self.settled = True
        self.ok = True
        self._value = value
        cb = self._callback
        if cb is not None:
            self._callback = None
            cb(self)
        cbs = self._callbacks
        if cbs is not None:
            self._callbacks = None
            for fn in cbs:
                fn(self)
        return True

    def try_fail(self, exc: BaseException) -> bool:
        """Fail unless already settled; returns whether it took effect."""
        if self.settled:
            return False
        self.fail(exc)
        return True

    # -- waiting ---------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Invoke *fn(event)* when the event settles (immediately if it has)."""
        if self.settled:
            fn(self)
        elif self._callback is None:
            self._callback = fn
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _dispatch(self) -> None:
        # Cold-path dispatch used by Process (kill/crash); the hot settle
        # paths above inline this.
        cb = self._callback
        if cb is not None:
            self._callback = None
            cb(self)
        cbs = self._callbacks
        if cbs is not None:
            self._callbacks = None
            for fn in cbs:
                fn(self)


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay", "_entry")

    #: Shared marker exception for cancelled timers (never raised into a
    #: waiter — cancellation detaches all callbacks — so one instance is
    #: safe and avoids an allocation per cancel).
    _CANCELLED = SimulationError("timeout cancelled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(sim)
        self.delay = delay
        # The scheduled callable is try_trigger itself: a timeout that
        # raced with explicit settling (cancellation, an ack arriving
        # first) fires as a no-op.
        self._entry = sim.schedule(delay, self.try_trigger, value)

    def cancel(self) -> bool:
        """Lazily cancel a pending timeout; returns whether it was pending.

        The heap entry is nulled in place (skipped on pop) instead of
        being removed, so cancelling is O(1).  Only the *owner* of a
        timeout may cancel it: waiters attached to a cancelled timeout
        are never woken.  Cancelling a settled timeout is a no-op.
        """
        if self.settled:
            return False
        entry = self._entry
        self._entry = None
        if not self.sim.cancel(entry):
            return False
        # Mark settled so a later explicit trigger/fail raises loudly and
        # `settled` reads as "this timer will never fire".
        self.settled = True
        self.ok = False
        self._exc = self._CANCELLED
        self._callback = None
        self._callbacks = None
        return True


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
        return not self.settled

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process.

        Used for crash injection.  Killing an already-finished process is a
        no-op.  The process event *fails* with :class:`ProcessKilled`, which
        joiners must be prepared to handle; a killed process that nobody is
        joined on is cleaned up silently.
        """
        if self.settled:
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
        if not self.settled:
            self.settled = True
            self.ok = False
            self._exc = ProcessKilled(reason)
            self._dispatch()

    # -- generator driving -------------------------------------------------

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self.settled:  # killed while a resume was already scheduled
            return
        # Iterative stepping: a chain of already-settled targets (cache
        # hits, zero-cost CPU charges) resumes in a loop instead of
        # recursing through add_callback -> _resume -> _step frames.
        gen_send = self._gen.send
        gen_throw = self._gen.throw
        while True:
            self._waiting_on = None
            try:
                if throw_exc is not None:
                    target = gen_throw(throw_exc)
                else:
                    target = gen_send(send_value)
            except StopIteration as stop:
                self.try_trigger(stop.value)
                return
            except ProcessKilled:
                if not self.settled:
                    self.settled = True
                    self.ok = False
                    self._exc = ProcessKilled("killed")
                    self._dispatch()
                return
            except BaseException as exc:
                self._on_crash(exc)
                return
            if not isinstance(target, Event):
                self._on_crash(
                    SimulationError(
                        f"process {self.name!r} yielded {target!r}; "
                        "processes may only yield Event instances"
                    )
                )
                return
            if target.settled:
                if target.ok:
                    send_value, throw_exc = target._value, None
                else:
                    send_value, throw_exc = None, target._exc
                continue
            self._waiting_on = target
            if target._callback is None:
                target._callback = self._resume
            elif target._callbacks is None:
                target._callbacks = [self._resume]
            else:
                target._callbacks.append(self._resume)
            return

    def _step_ctx(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        """Step the generator under this process's span context.

        On traced runs the tracer's ambient :attr:`Tracer.current` is
        swapped to :attr:`span` around the step (and restored, so inline
        settle chains that resume other processes re-establish their own
        context).  With tracing off this is a single ``is None`` check
        in front of :meth:`_step`.
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
        if self.settled:
            return
        if event is not self._waiting_on:
            return  # stale callback from an event we no longer wait on
        if obs_state.TRACER is not None:
            if event.ok:
                self._step_ctx(event._value, None)
            else:
                self._step_ctx(None, event._exc)
        elif event.ok:
            self._step(event._value, None)
        else:
            self._step(None, event._exc)

    def _on_crash(self, exc: BaseException) -> None:
        self.settled = True
        self.ok = False
        self._exc = exc
        if obs_state.TRACER is not None:
            obs_state.TRACER.instant(
                "proc.crash", self.sim.now, process=self.name, error=type(exc).__name__
            )
        had_waiters = self._callback is not None or bool(self._callbacks)
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
        if self.settled:
            return
        if event.ok:
            self.try_trigger((index, event._value))
        else:
            self.try_fail(event._exc)
        self.events = ()  # drop child references once settled


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
        if self.settled:
            return
        if not event.ok:
            self.try_fail(event._exc)
            self.events = ()
            return
        self._remaining -= 1
        if self._remaining == 0:
            values = [ev._value for ev in self.events]
            self.events = ()
            self.trigger(values)


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

    __slots__ = ("events", "needed", "_total", "_successes", "_failures")

    def __init__(self, sim: "Simulator", events: Iterable[Event], needed: int):
        super().__init__(sim)
        self.events = list(events)
        self.needed = needed
        self._total = len(self.events)
        self._successes: List[Tuple[int, Any]] = []
        self._failures: List[BaseException] = []
        if needed <= 0:
            self.trigger([])
            return
        if needed > self._total:
            raise SimulationError(
                f"quorum of {needed} impossible with {self._total} events"
            )
        child_settled = self._child_settled
        for event in self.events:
            event.add_callback(child_settled)

    def _child_settled(self, event: Event) -> None:
        if self.settled:
            return
        if event.ok:
            # The child's position is looked up, not captured per child:
            # quorums are a handful of distinct events.
            self._successes.append((self.events.index(event), event._value))
            if len(self._successes) >= self.needed:
                self.events = ()  # late completions only see the settled check
                self.trigger(list(self._successes))
        else:
            self._failures.append(event._exc)
            if len(self._failures) > self._total - self.needed:
                self.events = ()
                self.fail(QuorumError(self.needed, list(self._failures)))


class Simulator:
    """The event loop: a priority queue of timestamped callbacks.

    Two pools back the queue: a heap of ``[time, seq, fn, args]`` entries
    for delayed work and a FIFO deque for zero-delay work.  Both draw
    sequence numbers from the same counter and the run loop merges them
    by ``(time, seq)``, so the observable execution order is exactly that
    of a single heap (``tests/sim_oracle.py`` is that heap, and
    ``tests/test_sim_fastpath.py`` checks this engine against it).
    """

    #: Compact the containers when at least this many cancelled entries
    #: are pending *and* they outnumber the live ones.
    _COMPACT_MIN = 512

    def __init__(self) -> None:
        #: Current virtual time in microseconds (advanced only by run()).
        self.now = 0.0
        self._seq = 0
        self._queue: List[list] = []
        self._ready: "deque[list]" = deque()
        self._cancelled = 0
        self._unhandled: List[Tuple[Process, BaseException]] = []

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` after *delay* microseconds of virtual time.

        Returns the (mutable) queue entry; :class:`Timeout` keeps it for
        lazy cancellation.  Zero-delay entries bypass the heap entirely.
        """
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            entry = [self.now, seq, fn, args]
            self._ready.append(entry)
        else:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            entry = [self.now + delay, seq, fn, args]
            heappush(self._queue, entry)
        return entry

    def cancel(self, entry: Optional[list]) -> bool:
        """Lazily cancel a queue entry returned by :meth:`schedule`.

        For guard timers (RPC / verb timeouts) that lost their race: the
        callback must already be a provable no-op.  O(1); the entry is
        skipped when popped, and the containers compact when dead
        entries dominate.  ``None`` (no handle) is refused like an
        already-dead entry.
        """
        if entry is None or entry[2] is None:
            return False
        entry[2] = None
        entry[3] = ()
        self._cancelled = cancelled = self._cancelled + 1
        if cancelled >= self._COMPACT_MIN and cancelled * 2 > len(self._queue) + len(
            self._ready
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop dead entries from both containers, in place.

        ``run()`` holds local references to the heap and the ready
        deque, so both must keep their identity.  Dispatch order of the
        live entries is unaffected: heapify re-establishes the same
        ``(time, seq)`` order.
        """
        queue = self._queue
        queue[:] = [e for e in queue if e[2] is not None]
        heapify(queue)
        live = [e for e in self._ready if e[2] is not None]
        self._ready.clear()
        self._ready.extend(live)
        self._cancelled = 0

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
            tracer.instant("proc.spawn", self.now, process=process.name)
        return process

    # -- introspection -----------------------------------------------------

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the earliest pending entry, or None when idle.

        Lazily-cancelled entries at either head are discarded on the way.
        """
        queue = self._queue
        while queue and queue[0][2] is None:
            heappop(queue)
            self._cancelled -= 1
        ready = self._ready
        while ready and ready[0][2] is None:
            ready.popleft()
            self._cancelled -= 1
        if ready and (not queue or ready[0][0] <= queue[0][0]):
            return ready[0][0]
        if queue:
            return queue[0][0]
        return None

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches *until*.

        Returns the clock value at exit.  Raises :class:`SimulationError`
        if any process died of an unobserved exception.
        """
        queue = self._queue
        ready = self._ready
        pop = heappop
        unhandled = self._unhandled  # only ever appended to, never rebound
        limit = float("inf") if until is None else until
        while True:
            # Pick the earlier of the deque head and the heap head by
            # (time, seq).  The deque is FIFO-sorted by construction:
            # zero-delay entries carry the (non-decreasing) clock value
            # at their scheduling instant plus an increasing seq.
            if ready:
                entry = ready[0]
                if queue:
                    head = queue[0]
                    from_heap = head[0] < entry[0] or (
                        head[0] == entry[0] and head[1] < entry[1]
                    )
                    if from_heap:
                        entry = head
                else:
                    from_heap = False
            elif queue:
                entry = queue[0]
                from_heap = True
            else:
                break
            time = entry[0]
            if time > limit:
                self.now = until
                return until
            if from_heap:
                pop(queue)
            else:
                ready.popleft()
            fn = entry[2]
            if fn is None:  # lazily cancelled
                self._cancelled -= 1
                continue
            entry[2] = None  # consumed: a late cancel() of this entry no-ops
            self.now = time
            fn(*entry[3])
            if unhandled:
                process, exc = unhandled[0]
                error = SimulationError(
                    f"process {process.name!r} died of an unhandled exception"
                )
                error.process = process
                raise error from exc
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_settled(
        self, event: Event, deadline: float, step: float = 1_000.0
    ) -> bool:
        """Advance time until *event* settles or *deadline* passes.

        Unlike ``run(until=deadline)`` this stops as soon as the event
        settles, which matters when perpetual background activity
        (heartbeats) would otherwise keep the clock running to the
        deadline.  Returns whether the event settled.

        When the next queued entry is far away the loop skips straight
        to it in one ``run()`` call instead of stepping the clock *step*
        microseconds at a time.  The skip target is still quantised to
        the same ``now + k*step`` ladder the stepped loop would have
        walked (reproducing its float arithmetic exactly), so the clock
        value observed by callers when the event settles is bit-identical
        to the reference behaviour.
        """
        while not event.settled and self.now < deadline:
            target = min(self.now + step, deadline)
            nxt = self.next_event_time()
            if nxt is None:
                # Nothing queued: no callback can ever settle the event,
                # so jump straight to the deadline.
                self.run(until=deadline)
                break
            if nxt > target and step > 0:
                # Walk the boundary ladder in pure floats (identical to
                # the stepped loop's arithmetic), then run once.
                while target < nxt and target < deadline:
                    target = min(target + step, deadline)
            self.run(until=target)
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
