"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    CpuPool,
    ProcessKilled,
    RngStreams,
    SimulationError,
    Simulator,
    all_of,
    quorum,
)
from repro.core.locks import BlockLockTable, LockMode
from repro.sim.engine import QuorumError
from tests.testing import collect_once


@pytest.fixture
def sim():
    return Simulator()


class TestClockAndScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_in_time_order(self, sim):
        order = []
        sim.schedule(5.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(9.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_run_in_schedule_order(self, sim):
        order = []
        for tag in range(10):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_the_clock(self, sim):
        sim.schedule(100.0, lambda: None)
        sim.run(until=40.0)
        assert sim.now == 40.0

    def test_run_until_past_queue_advances_clock(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_run_drains_queue(self, sim):
        hits = []
        sim.schedule(3.0, hits.append, 1)
        assert sim.run() == 3.0
        assert hits == [1]

    def test_resume_after_run_until(self, sim):
        hits = []
        sim.schedule(100.0, hits.append, 1)
        sim.run(until=50.0)
        assert hits == []
        sim.run()
        assert hits == [1]
        assert sim.now == 100.0


class TestEvents:
    def test_trigger_sets_value(self, sim):
        event = sim.event()
        event.trigger(42)
        assert event.ok and event.value == 42

    def test_fail_sets_exception(self, sim):
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.failed and event.exception is error

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.trigger(1)
        with pytest.raises(SimulationError):
            event.trigger(2)

    def test_try_trigger_after_settle_is_noop(self, sim):
        event = sim.event()
        assert event.try_trigger(1)
        assert not event.try_trigger(2)
        assert event.value == 1

    def test_try_fail_after_settle_is_noop(self, sim):
        event = sim.event()
        event.trigger(1)
        assert not event.try_fail(RuntimeError())
        assert event.ok

    def test_fail_requires_exception_instance(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_callback_after_settle_fires_immediately(self, sim):
        event = sim.event()
        event.trigger("x")
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == ["x"]

    def test_timeout_value(self, sim):
        timeout = sim.timeout(7.5, value="done")
        sim.run()
        assert timeout.ok and timeout.value == "done" and sim.now == 7.5

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)


class TestProcesses:
    def test_process_returns_value(self, sim):
        def proc():
            yield sim.timeout(3.0)
            return "result"

        assert sim.run_process(proc()) == "result"
        assert sim.now == 3.0

    def test_yield_receives_event_value(self, sim):
        def proc():
            value = yield sim.timeout(1.0, value=99)
            return value

        assert sim.run_process(proc()) == 99

    def test_failed_event_raises_inside_process(self, sim):
        event = sim.event()
        sim.schedule(2.0, lambda: event.fail(ValueError("bad")))

        def proc():
            try:
                yield event
            except ValueError as exc:
                return f"caught {exc}"

        assert sim.run_process(proc()) == "caught bad"

    def test_unhandled_process_exception_aborts_run(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("unobserved")

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_observed_process_exception_propagates_to_joiner(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("child died")

        def parent():
            try:
                yield sim.spawn(child())
            except ValueError:
                return "observed"

        assert sim.run_process(parent()) == "observed"

    def test_join_returns_child_value(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 7

        def parent():
            value = yield sim.spawn(child())
            return value * 2

        assert sim.run_process(parent()) == 14

    def test_yielding_non_event_aborts(self, sim):
        def proc():
            yield 42

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_kill_stops_process(self, sim):
        hits = []

        def proc():
            while True:
                yield sim.timeout(1.0)
                hits.append(sim.now)

        process = sim.spawn(proc())
        sim.run(until=3.5)
        process.kill()
        sim.run()
        assert not process.alive
        assert hits == [1.0, 2.0, 3.0]

    def test_killed_process_fails_joiners_with_process_killed(self, sim):
        def child():
            yield sim.timeout(100.0)

        child_proc = sim.spawn(child())

        def parent():
            try:
                yield child_proc
            except ProcessKilled:
                return "killed"

        parent_proc = sim.spawn(parent())
        sim.schedule(1.0, child_proc.kill)
        sim.run(until=2.0)
        assert parent_proc.ok and parent_proc.value == "killed"

    def test_kill_finished_process_is_noop(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return 1

        process = sim.spawn(proc())
        sim.run()
        process.kill()
        assert process.ok and process.value == 1

    def test_process_cleanup_on_kill_runs_finally(self, sim):
        cleaned = []

        def proc():
            try:
                yield sim.timeout(100.0)
            finally:
                cleaned.append(True)

        process = sim.spawn(proc())
        sim.run(until=1.0)
        process.kill()
        assert cleaned == [True]

    def test_deadlocked_run_process_raises(self, sim):
        def proc():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError):
            sim.run_process(proc())


class TestCollectedSimulation:
    """A dead simulation is freed by one collection: the ``finally``
    blocks the collector runs never resume another process."""

    def test_lock_released_by_a_collected_holder_wakes_no_waiter(self):
        stepped = []

        def build():
            sim = Simulator()
            locks = BlockLockTable(sim)

            def holder():
                token = yield from locks.acquire([7], LockMode.WRITE)
                try:
                    yield sim.event()  # never settles
                finally:
                    locks.release(token)

            def waiter():
                yield from locks.acquire([7], LockMode.WRITE)
                stepped.append(True)
                yield sim.timeout(1.0)  # protocol code: allocates into the graph

            sim.spawn(holder())
            sim.spawn(waiter())
            sim.run()
            assert stepped == [] and locks.held(7)
            return sim._unhandled

        assert collect_once(build) == []
        assert stepped == []

    def test_lock_released_by_a_killed_holder_still_wakes_the_waiter(self, sim):
        """The rule is about the collector only: a live ``kill`` throws
        ``ProcessKilled``, and the waiter it unblocks runs on."""
        locks, stepped = BlockLockTable(sim), []

        def holder():
            token = yield from locks.acquire([7], LockMode.WRITE)
            try:
                yield sim.event()
            finally:
                locks.release(token)

        def waiter():
            yield from locks.acquire([7], LockMode.WRITE)
            stepped.append(sim.now)

        held = sim.spawn(holder())
        sim.spawn(waiter())
        sim.schedule(5.0, held.kill)
        sim.run()
        assert stepped == [5.0]

    def test_inner_finally_settling_the_outer_wait_resumes_nothing(self):
        def build():
            sim = Simulator()

            def inner(done):
                try:
                    yield done
                finally:
                    done.try_trigger(None)

            def outer():
                yield from inner(sim.event())

            sim.spawn(outer())
            sim.run()
            return sim._unhandled

        assert collect_once(build) == []


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        def proc():
            events = [sim.timeout(i, value=i) for i in (3.0, 1.0, 2.0)]
            values = yield all_of(sim, events)
            return values

        assert sim.run_process(proc()) == [3.0, 1.0, 2.0]

    def test_all_of_empty_triggers_immediately(self, sim):
        combined = all_of(sim, [])
        assert combined.ok and combined.value == []

    def test_all_of_fails_on_first_failure(self, sim):
        good = sim.timeout(5.0)
        bad = sim.event()
        sim.schedule(1.0, lambda: bad.fail(RuntimeError("x")))

        def proc():
            try:
                yield all_of(sim, [good, bad])
            except RuntimeError:
                return sim.now

        assert sim.run_process(proc()) == 1.0

    def test_within_fails_an_event_at_its_deadline(self, sim):
        def proc():
            try:
                yield sim.within(sim.timeout(5.0), 2.0, RuntimeError, "late", 2.0)
            except RuntimeError as exc:
                return sim.now, exc.args

        assert sim.run_process(proc()) == (2.0, ("late", 2.0))

    def test_within_cancels_its_guard_when_the_event_settles(self, sim):
        built = []
        event = sim.within(sim.timeout(1.0, "fast"), 5.0, built.append, "never")
        sim.run()
        assert event.ok and event.value == "fast"
        assert sim.now == 1.0 and built == []  # no entry left at t=5

    def test_quorum_triggers_at_k(self, sim):
        def proc():
            events = [sim.timeout(float(i + 1), value=i) for i in range(5)]
            winners = yield quorum(sim, events, 3)
            return sim.now, [i for i, _v in winners]

        now, indices = sim.run_process(proc())
        assert now == 3.0
        assert indices == [0, 1, 2]

    def test_quorum_ignores_late_failures(self, sim):
        events = [sim.event() for _ in range(3)]
        q = quorum(sim, events, 2)
        events[0].trigger("a")
        events[1].trigger("b")
        assert q.ok
        events[2].fail(RuntimeError())  # must not disturb the settled quorum
        assert q.ok

    def test_quorum_fails_when_impossible(self, sim):
        events = [sim.event() for _ in range(3)]
        q = quorum(sim, events, 2)
        events[0].fail(RuntimeError("1"))
        assert not q.settled
        events[1].fail(RuntimeError("2"))
        assert q.failed and isinstance(q.exception, QuorumError)

    def test_quorum_of_zero_triggers_immediately(self, sim):
        q = quorum(sim, [sim.event()], 0)
        assert q.ok and q.value == []

    def test_quorum_larger_than_events_rejected(self, sim):
        with pytest.raises(SimulationError):
            quorum(sim, [sim.event()], 2)


class TestCpuPool:
    def test_serial_execution_on_one_core(self, sim):
        pool = CpuPool(sim, 1)
        done = []
        for _ in range(3):
            pool.execute(10.0).add_callback(lambda ev: done.append(sim.now))
        sim.run()
        assert done == [10.0, 20.0, 30.0]

    def test_parallel_execution_on_many_cores(self, sim):
        pool = CpuPool(sim, 3)
        done = []
        for _ in range(3):
            pool.execute(10.0).add_callback(lambda ev: done.append(sim.now))
        sim.run()
        assert done == [10.0, 10.0, 10.0]

    def test_queueing_beyond_core_count(self, sim):
        pool = CpuPool(sim, 2)
        done = []
        for _ in range(4):
            pool.execute(10.0).add_callback(lambda ev: done.append(sim.now))
        sim.run()
        assert done == [10.0, 10.0, 20.0, 20.0]

    def test_zero_cost_completes_immediately(self, sim):
        pool = CpuPool(sim, 1)
        event = pool.execute(0.0)
        assert event.ok

    def test_submit_shares_the_queue_with_execute(self, sim):
        """One completion path: continuations and events queue FIFO
        together, and the freed core is re-dispatched before the
        finished task's continuation runs."""
        pool = CpuPool(sim, 1)
        order = []

        def first(tag):
            order.append((tag, sim.now, pool.busy_cores, pool.queue_depth))

        pool.submit(10.0, first, "a")
        pool.execute(5.0).add_callback(lambda ev: order.append(("b", sim.now)))
        pool.submit(1.0, order.append, "c")
        sim.run()
        assert order == [("a", 10.0, 1, 1), ("b", 15.0), "c"]
        assert pool.busy_cores == 0

    def test_zero_cost_submit_calls_back_before_returning(self, sim):
        pool = CpuPool(sim, 1)
        pool.execute(10.0)  # the core is busy: zero-cost work does not queue
        got = []
        pool.submit(0.0, got.append, "now")
        assert got == ["now"] and pool.queue_depth == 0

    def test_fifo_ordering(self, sim):
        pool = CpuPool(sim, 1)
        order = []
        for tag in range(5):
            pool.execute(1.0).add_callback(lambda ev, t=tag: order.append(t))
        sim.run()
        assert order == list(range(5))

    def test_utilisation(self, sim):
        pool = CpuPool(sim, 2)
        pool.execute(10.0)
        sim.run()
        assert pool.utilisation(10.0) == pytest.approx(0.5)

    def test_at_least_one_core_required(self, sim):
        with pytest.raises(SimulationError):
            CpuPool(sim, 0)

    def test_drain_discards_queued_work(self, sim):
        pool = CpuPool(sim, 1)
        done = []
        pool.execute(10.0).add_callback(lambda ev: done.append("a"))
        pool.execute(10.0).add_callback(lambda ev: done.append("b"))
        pool.drain()
        sim.run()
        assert done == ["a"]  # in-service finishes; queued is dropped


class TestRngStreams:
    def test_streams_are_deterministic(self):
        a = RngStreams(seed=5).stream("x")
        b = RngStreams(seed=5).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_differ_by_name(self):
        streams = RngStreams(seed=5)
        assert streams.stream("x").random() != streams.stream("y").random()

    def test_streams_differ_by_seed(self):
        assert RngStreams(seed=1).stream("x").random() != RngStreams(seed=2).stream("x").random()

    def test_stream_is_memoised(self):
        streams = RngStreams(seed=0)
        assert streams.stream("a") is streams.stream("a")


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            sim = Simulator()
            rng = RngStreams(seed=3).stream("jitter")
            trace = []

            def proc(tag):
                for _ in range(20):
                    yield sim.timeout(rng.uniform(0.1, 2.0))
                    trace.append((tag, sim.now))

            for tag in range(4):
                sim.spawn(proc(tag))
            sim.run()
            return trace

        assert build() == build()
