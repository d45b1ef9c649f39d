"""Shipped engine vs the all-heap oracle, and fast-path regressions.

``repro.sim.engine`` carries several optimisations (ready deque for
zero-delay entries, single-callback slot, lazy timeout cancellation,
in-place compaction, skip-ahead ``run_until_settled``);
``tests/sim_oracle.py`` is the plain ``(time, seq)`` heap it must be
observationally identical to: same firing order, same virtual times.
These tests drive identical workloads — hand-written, generated by
Hypothesis, and one whole Sift cluster — through both and compare full
execution traces.  Schedules with cancellation, which the oracle cannot
express, are checked against an explicit ``(time, seq)`` model.  The
fast-path edge cases are then pinned individually (including the
compaction-during-run bug where rebinding the queue containers instead
of mutating them in place silently dropped events).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SiftGroup
from repro.kv import KvClient, KvConfig, kv_app_factory
from repro.net.fabric import Fabric
from repro.sim import SEC, engine
from repro.sim.rng import RngStreams
from tests import sim_oracle as oracle

ENGINES = [engine, oracle]

# Delays where a bucketed timer queue would change level (1 us, 256 us,
# 65536 us slots, 2**24 us horizon): a heap has no such edges, and the
# list keeps any future queue honest about them.
BOUNDARIES = [
    1.0, 2.0, 255.0, 256.0, 257.0,
    65_535.0, 65_536.0, 65_537.0,
    16_777_215.0, 16_777_216.0, 16_777_217.0,
]

delays = st.one_of(
    st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    st.sampled_from(BOUNDARIES),
    st.floats(min_value=0.0, max_value=2.0**25, allow_nan=False),
)


def _trace_of(mod, workload):
    """Run *workload(sim, mod, mark)* to completion; return the trace."""
    sim = mod.Simulator()
    trace = []

    def mark(tag):
        trace.append((sim.now, tag))

    workload(sim, mod, mark)
    sim.run()
    return trace


def assert_equivalent(workload):
    shipped = _trace_of(engine, workload)
    assert shipped == _trace_of(oracle, workload)
    assert shipped  # a workload that marks nothing tests nothing


# -- trace equivalence -------------------------------------------------------


class TestTraceEquivalence:
    def test_same_timestamp_fifo(self):
        """Zero-delay entries interleaved with delayed entries that land
        at the same instant must run in seq order — the ready deque must
        not jump ahead of (or fall behind) equal-time heap entries."""

        def workload(sim, mod, mark):
            def at_zero():
                # Scheduled from inside a callback: lands in the ready
                # deque at the same timestamp as the heap entries below.
                sim.schedule(0.0, mark, "z1")
                sim.schedule(2.0, mark, "d-later")
                sim.schedule(0.0, mark, "z2")

            sim.schedule(1.0, at_zero)
            sim.schedule(1.0, mark, "d1")  # same instant as z1/z2
            sim.schedule(1.0, mark, "d2")
            sim.schedule(0.0, mark, "immediate")

        assert_equivalent(workload)

    def test_process_chains_and_combinators(self):
        def workload(sim, mod, mark):
            def worker(i):
                yield sim.timeout(1.0 + i)
                mark(f"w{i}.a")
                yield sim.timeout(0.0)  # zero-delay resume
                mark(f"w{i}.b")
                return i * 10

            procs = [sim.spawn(worker(i), name=f"w{i}") for i in range(4)]
            q = mod.quorum(sim, procs, 2)
            q.add_callback(lambda ev: mark(("quorum", ev.value)))
            a = mod.all_of(sim, [sim.timeout(3.0, "x"), sim.timeout(1.0, "y")])
            a.add_callback(lambda ev: mark(("all", ev.value)))
            slow = sim.within(sim.timeout(7.0), 2.0, RuntimeError, "slow")
            slow.add_callback(lambda ev: mark(("within", ev.exception.args)))

        assert_equivalent(workload)

    def test_cancelled_guard_timers_are_invisible(self):
        """The guard-timer pattern: the timeout's callback is a no-op
        once the guarded event settled, so cancelling must not shift
        the timing of anything else (on either engine — the oracle
        ignores cancel and fires the no-op for real)."""

        def workload(sim, mod, mark):
            def guarded(i):
                done = sim.event()
                guard = sim.schedule(50.0, done.try_fail, RuntimeError("to"))
                sim.schedule(1.0 + i, done.try_trigger, i)
                done.add_callback(lambda ev: sim.cancel(guard))
                done.add_callback(lambda ev: mark(("done", i, ev.value)))

            for i in range(30):
                guarded(i)
            sim.schedule(60.0, mark, "after-guard-window")

        assert_equivalent(workload)

    def test_within_deadlines(self):
        """The deadline primitive: guards that lose their race are
        cancelled on the shipped engine and fire as no-ops on the
        oracle, and either way nothing else moves; guards that win fail
        their event at exactly the deadline, before equal-time entries
        scheduled after them."""

        def workload(sim, mod, mark):
            def guarded(i):
                done = sim.within(sim.event(), 10.0 + i % 3, RuntimeError, "late", i)
                if i % 4:
                    sim.schedule(float(i % 17), done.try_trigger, i)
                done.add_callback(
                    lambda ev: mark(("done", i, ev.value if ev.ok else ev.exception.args))
                )
                sim.schedule(10.0 + i % 3, mark, ("tie", i))

            for i in range(40):
                guarded(i)

        assert_equivalent(workload)

    def test_randomised_schedules(self):
        """Seeded op soup: schedules, timers (some cancelled), process
        chains — interpreted identically on both engines."""
        for seed in (7, 23, 101):
            ops = self._build_ops(seed, n=300)

            def workload(sim, mod, mark, ops=ops):
                for op in ops:
                    kind = op[0]
                    if kind == "sched":
                        _, delay, i = op
                        sim.schedule(delay, mark, f"s{i}")
                    elif kind == "timer":
                        _, delay, cancelled, i = op
                        timer = sim.timeout(delay)
                        if cancelled:
                            timer.add_callback(lambda _ev: None)
                            timer.cancel()
                        else:
                            timer.add_callback(lambda _ev, i=i: mark(f"t{i}"))
                    else:  # proc
                        _, delay, steps, i = op

                        def proc(delay=delay, steps=steps, i=i):
                            for k in range(steps):
                                yield sim.timeout(delay)
                                mark(f"p{i}.{k}")

                        sim.spawn(proc(), name=f"p{i}")

            assert_equivalent(workload)

    @staticmethod
    def _build_ops(seed, n):
        rng = random.Random(seed)
        delays = (0.0, 0.0, 0.5, 1.0, 2.5, 2.5, 7.0, 40.0)
        ops = []
        for i in range(n):
            r = rng.random()
            if r < 0.4:
                ops.append(("sched", rng.choice(delays), i))
            elif r < 0.75:
                ops.append(("timer", rng.choice(delays), rng.random() < 0.5, i))
            else:
                ops.append(("proc", rng.choice(delays), rng.randint(1, 3), i))
        return ops


# -- generated schedules vs the oracle heap -----------------------------------


class TestGeneratedSchedules:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(delays, min_size=1, max_size=150))
    def test_flat_schedule_order(self, ds):
        """Any mix of delays, near and far, fires in exactly the oracle
        heap's (time, seq) order."""

        def workload(sim, mod, mark):
            for i, d in enumerate(ds):
                sim.schedule(d, mark, i)

        assert_equivalent(workload)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(delays, st.lists(delays, max_size=3)),
                    min_size=1, max_size=40))
    def test_nested_schedule_order(self, spec):
        """Scheduling from inside callbacks — including delays that land
        at or just after the instant being dispatched — must still match
        the oracle heap."""

        def workload(sim, mod, mark):
            def fire(i, children):
                mark(i)
                for j, d in enumerate(children):
                    sim.schedule(d, mark, (i, j))

            for i, (d, children) in enumerate(spec):
                sim.schedule(d, fire, i, children)

        assert_equivalent(workload)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(delays, min_size=1, max_size=80),
           st.sampled_from(BOUNDARIES))
    def test_run_until_boundaries(self, ds, until):
        """``run(until=...)`` at each boundary must fire the same prefix
        and land the clock at the same instant on both engines, and the
        remainder must fire identically after."""

        def run_split(mod):
            sim = mod.Simulator()
            trace = []

            def mark(tag):
                trace.append((sim.now, tag))

            for i, d in enumerate(ds):
                sim.schedule(d, mark, i)
            sim.run(until=until)
            trace.append(("clock", sim.now))
            sim.run()
            return trace

        assert run_split(engine) == run_split(oracle)

    def test_far_future_entries_fire_at_exact_times(self):
        def workload(sim, mod, mark):
            for k, d in enumerate([
                2.0**24 + 5.0, 2.0**24 * 3 + 0.25, 2.0**25, 2.0**24,
                123_456_789.5,
            ]):
                sim.schedule(d, mark, k)

        assert_equivalent(workload)

    def test_exact_boundary_times_fire_in_seq_order(self):
        """Equal times resolve by seq."""

        def workload(sim, mod, mark):
            for rep in range(3):
                for b in BOUNDARIES:
                    sim.schedule(b, mark, (b, rep))

        assert_equivalent(workload)

    def test_callback_schedules_around_its_own_instant(self):
        """A callback scheduling fractions of a microsecond ahead, among
        pending entries at the same and neighbouring instants, must see
        them dispatched in time order."""

        def workload(sim, mod, mark):
            def fire():
                mark("head")
                sim.schedule(0.5, mark, "same-us")
                sim.schedule(1.5, mark, "next-us")
                sim.schedule(3.25, mark, "few-us")

            sim.schedule(5.0, fire)
            for i in range(12):
                sim.schedule(5.0 + i * 0.75, mark, ("bg", i))

        assert_equivalent(workload)

    @pytest.mark.parametrize("delay", [0.5, 3.0, 300.0, 70_000.0, 2.0**24 + 1.0])
    def test_lone_entry_fires_at_any_distance(self, delay):
        sim = engine.Simulator()
        fired = []
        sim.schedule(delay, fired.append, "x")
        assert sim.next_event_time() == delay
        sim.run()
        assert fired == ["x"]
        assert sim.now == delay


# -- generated schedules with cancellation vs a (time, seq) model ------------


class TestCancellationAgainstModel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(delays, st.booleans()), min_size=1, max_size=150))
    def test_cancelled_entries_never_fire_order_preserved(self, items):
        """Lazy in-place cancellation (and any compaction it triggers)
        must not disturb the (time, seq) order of the survivors."""
        sim = engine.Simulator()
        fired = []
        handles = []
        for i, (d, _cancel) in enumerate(items):
            handles.append(sim.schedule(d, fired.append, i))
        for (_, cancel), handle in zip(items, handles):
            if cancel:
                assert sim.cancel(handle)
        sim.run()
        expected = sorted(
            (i for i, (_, cancel) in enumerate(items) if not cancel),
            key=lambda i: (items[i][0], i),
        )
        assert fired == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(delays, st.none() | delays),
                    min_size=1, max_size=100))
    def test_cancel_then_refire(self, items):
        """A cancelled timer replaced by a refire — possibly at the same
        instant, possibly far in the future — fires exactly once, at the
        refire's (time, seq) position."""
        sim = engine.Simulator()
        fired = []
        seq = 0
        model = []  # (time, seq, tag) of live entries
        for i, (d, refire) in enumerate(items):
            handle = sim.schedule(d, fired.append, i)
            seq += 1
            if refire is None:
                model.append((d, seq, i))
            else:
                assert sim.cancel(handle)
                sim.schedule(refire, fired.append, (i, "refire"))
                seq += 1
                model.append((refire, seq, (i, "refire")))
        sim.run()
        assert fired == [tag for _, _, tag in sorted(model, key=lambda m: m[:2])]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(delays, min_size=2, max_size=80), st.data())
    def test_cancel_during_run(self, ds, data):
        """Cancelling pending timers from inside a running callback
        still skips exactly the cancelled set."""
        sim = engine.Simulator()
        fired = []
        handles = []
        victims = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(ds) - 1), max_size=5))

        def first():
            for v in victims:
                sim.cancel(handles[v])

        sim.schedule(0.0, first)
        for i, d in enumerate(ds):
            handles.append(sim.schedule(d + 1.0, fired.append, i))
        sim.run()
        expected = sorted(
            (i for i in range(len(ds)) if i not in victims),
            key=lambda i: (ds[i] + 1.0, i),
        )
        assert fired == expected

    def test_cancelled_among_microsecond_spaced_timers(self):
        sim = engine.Simulator()
        fired = []
        handles = [sim.schedule(1.0 + i, fired.append, i) for i in range(60)]
        for i in range(0, 60, 7):
            sim.cancel(handles[i])
        sim.run()
        assert fired == [i for i in range(60) if i % 7]

    def test_cancel_refuses_what_the_oracle_hands_out(self):
        """Model code cancels whatever schedule() returned; the oracle
        returns None and both engines must say no to it."""
        ref = oracle.Simulator()
        assert ref.cancel(ref.schedule(5.0, lambda: None)) is False
        sim = engine.Simulator()
        assert sim.cancel(None) is False
        handle = sim.schedule(5.0, lambda: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False  # already dead


# -- one whole cluster on both engines ---------------------------------------


class TestWholeStackEquivalence:
    """Every layer above ``sim`` (fabric, RPC, verbs, replicated memory,
    KV) driven by the same seeded closed-loop clients must complete the
    same operations with the same latencies on either engine."""

    CLIENTS = 4
    OPS_PER_CLIENT = 40

    def _drive(self, mod):
        sim = mod.Simulator()
        fabric = Fabric(sim, rng=RngStreams(seed=11))
        kv_config = KvConfig(max_keys=256, wal_entries=128, watermark_interval=32)
        group = SiftGroup(
            fabric,
            kv_config.sift_config(fm=1, fc=1, wal_entries=128),
            name="eq",
            app_factory=kv_app_factory(kv_config),
        )
        group.start()
        latencies = []

        def client_loop(i):
            client = KvClient(fabric.add_host(f"client{i}", cores=2), fabric, group)
            rng = fabric.rng.stream(f"equivalence-client-{i}")
            yield from group.wait_until_serving()
            for n in range(self.OPS_PER_CLIENT):
                key = b"key-%d" % rng.randrange(16)
                started = sim.now
                if rng.random() < 0.5:
                    yield from client.put(key, b"value-%d-%d" % (i, n))
                else:
                    yield from client.get(key)
                latencies.append((i, sim.now - started))

        clients = [sim.spawn(client_loop(i)) for i in range(self.CLIENTS)]
        done = engine.all_of(sim, clients)
        assert sim.run_until_settled(done, deadline=30 * SEC)
        assert done.ok, done.exception
        return latencies, sim.now

    def test_sift_cluster_runs_identically(self):
        shipped, shipped_now = self._drive(engine)
        expected, expected_now = self._drive(oracle)
        assert len(shipped) == self.CLIENTS * self.OPS_PER_CLIENT
        assert shipped == expected
        assert shipped_now == expected_now


# -- run_until_settled skip-ahead --------------------------------------------


class TestRunUntilSettled:
    @pytest.mark.parametrize("settle_at,deadline", [
        (123_456.789, 500_000.0),   # many skipped steps, fractional time
        (999.5, 500_000.0),         # inside the first step
        (499_999.9, 500_000.0),     # just under the deadline
    ])
    def test_clock_matches_oracle(self, settle_at, deadline):
        outcomes = []
        for mod in ENGINES:
            sim = mod.Simulator()
            done = sim.event()
            sim.schedule(settle_at, done.try_trigger, "v")
            # Background churn so the queue is never empty.
            def heartbeat():
                while True:
                    yield sim.timeout(5_000.0)
            sim.spawn(heartbeat(), name="hb")
            settled = sim.run_until_settled(done, deadline=deadline)
            outcomes.append((settled, sim.now))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is True

    def test_never_settles_reaches_deadline(self):
        outcomes = []
        for mod in ENGINES:
            sim = mod.Simulator()
            done = sim.event()
            sim.schedule(10.0, lambda: None)
            settled = sim.run_until_settled(done, deadline=77_777.25)
            outcomes.append((settled, sim.now))
        assert outcomes[0] == outcomes[1] == (False, 77_777.25)

    def test_empty_queue_jumps_to_deadline(self):
        sim = engine.Simulator()
        done = sim.event()
        assert sim.run_until_settled(done, deadline=1_000.0) is False
        assert sim.now == 1_000.0


# -- fast-path edge cases ----------------------------------------------------


class TestTimeoutCancel:
    def test_cancel_pending(self):
        sim = engine.Simulator()
        timer = sim.timeout(10.0)
        fired = []
        timer.add_callback(fired.append)
        assert timer.cancel() is True
        assert timer.settled and timer.failed
        sim.run()
        assert fired == []  # detached callback never runs

    def test_cancel_is_idempotent_and_late_cancel_noops(self):
        sim = engine.Simulator()
        timer = sim.timeout(10.0)
        timer.add_callback(lambda _ev: None)
        assert timer.cancel() is True
        assert timer.cancel() is False
        fired_timer = sim.timeout(1.0)
        fired_timer.add_callback(lambda _ev: None)
        sim.run()
        assert fired_timer.ok
        assert fired_timer.cancel() is False  # already fired

    def test_consumed_entry_cannot_corrupt_cancel_count(self):
        """A callback that fires keeps a reference to its own entry; a
        late ``sim.cancel`` on it must not increment the dead-entry
        counter (that drift made compaction fire on a clean heap)."""
        sim = engine.Simulator()
        entry = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.cancel(entry) is False
        assert sim._cancelled == 0

    def test_zero_delay_timeout_cancel(self):
        sim = engine.Simulator()
        timer = sim.timeout(0.0)  # lives in the ready deque, not the heap
        timer.add_callback(lambda _ev: None)
        assert timer.cancel() is True
        marks = []
        sim.schedule(0.0, marks.append, "ran")
        sim.run()
        assert marks == ["ran"]


class TestCompactionDuringRun:
    """Regression: compaction must mutate the queue containers in place.

    ``run()`` holds local references to the heap and the ready deque; an
    early version of ``_note_cancelled`` rebound ``self._queue`` and
    ``self._ready`` to fresh containers during compaction, so every
    event scheduled after the compaction point went into containers the
    running loop never looked at — and silently never fired.
    """

    def test_mass_cancel_mid_run_keeps_live_events(self):
        sim = engine.Simulator()
        fired = []
        # Enough dead timers to cross the compaction threshold (512).
        timers = [sim.timeout(100.0 + i) for i in range(1500)]
        for t in timers:
            t.add_callback(lambda _ev: None)
        survivors = [sim.timeout(200_000.0 + i) for i in range(20)]
        for i, t in enumerate(survivors):
            t.add_callback(lambda _ev, i=i: fired.append(f"live{i}"))

        def mass_cancel():
            for t in timers:
                t.cancel()
            # Scheduled *after* compaction ran: lands in whatever
            # containers the simulator now points at.
            sim.schedule(1.0, fired.append, "post-compaction")
            sim.schedule(0.0, fired.append, "post-compaction-ready")

        sim.schedule(1.0, mass_cancel)
        sim.run()
        assert fired[:2] == ["post-compaction-ready", "post-compaction"]
        assert fired[2:] == [f"live{i}" for i in range(20)]
        assert sim._cancelled == 0  # compaction reset the counter

    def test_ready_deque_compaction_in_place(self):
        sim = engine.Simulator()
        fired = []

        def burst():
            doomed = [sim.timeout(0.0) for _ in range(600)]
            for t in doomed:
                t.add_callback(lambda _ev: None)
            for t in doomed:
                t.cancel()  # crosses the threshold; compacts the deque
            sim.schedule(0.0, fired.append, "alive")

        sim.schedule(0.0, burst)
        sim.run()
        assert fired == ["alive"]

    def test_cancelled_guards_do_not_pile_up(self):
        """100k guard timers scheduled and cancelled beside 1,000 live
        ones: dead entries never outnumber the live."""
        sim = engine.Simulator()
        live = 1_000
        fired = []
        for i in range(live):
            sim.schedule(1_000_000.0 + i, fired.append, i)
        for i in range(100_000):
            sim.cancel(sim.schedule(50.0 + i % 13, fired.append, "guard"))
            assert len(sim._queue) <= 2 * live + 1
        assert len(sim._queue) < 2 * live
        sim.run()
        assert fired == list(range(live))


class TestStaleProcessCallbacks:
    def test_killed_process_ignores_pending_resume(self):
        sim = engine.Simulator()
        gate = sim.event()
        steps = []

        def proc():
            steps.append("start")
            yield gate
            steps.append("resumed")  # must never happen

        process = sim.spawn(proc(), name="victim")
        sim.run()
        process.kill("crash injection")
        assert process.failed
        gate.trigger("late")  # the registered _resume fires, must no-op
        sim.run()
        assert steps == ["start"]

    def test_kill_while_resume_scheduled(self):
        """Kill between an event settling and the process advancing."""
        sim = engine.Simulator()
        steps = []

        def proc():
            yield sim.timeout(5.0)
            steps.append("after-timeout")

        process = sim.spawn(proc(), name="victim")
        sim.run(until=1.0)
        process.kill()
        sim.run()  # the timeout still fires; the dead process must not step
        assert steps == []
        assert process.failed and isinstance(process.exception, engine.ProcessKilled)

    def test_joiner_sees_killed_process(self):
        sim = engine.Simulator()
        seen = []

        def victim():
            yield sim.timeout(100.0)

        def joiner(target):
            try:
                yield target
            except engine.ProcessKilled:
                seen.append("killed")

        target = sim.spawn(victim(), name="victim")
        sim.spawn(joiner(target), name="joiner")
        sim.run(until=1.0)
        target.kill()
        sim.run()
        assert seen == ["killed"]


class TestCombinatorSettledBehaviour:
    def test_quorum_ignores_late_completions(self):
        sim = engine.Simulator()
        children = [sim.event() for _ in range(5)]
        q = engine.quorum(sim, children, 2)
        children[3].trigger("a")
        children[1].trigger("b")
        assert q.ok and q.value == [(3, "a"), (1, "b")]
        assert q.events == ()  # child references dropped on settle
        children[0].trigger("late")
        children[4].fail(RuntimeError("late failure"))
        assert q.value == [(3, "a"), (1, "b")]

    def test_quorum_failure_path_drops_children(self):
        sim = engine.Simulator()
        children = [sim.event() for _ in range(3)]
        q = engine.quorum(sim, children, 2)
        children[0].fail(RuntimeError("x"))
        children[2].fail(RuntimeError("y"))
        assert q.failed and isinstance(q.exception, engine.QuorumError)
        assert q.events == ()
        children[1].trigger("late")  # must not resurrect the quorum
        assert q.failed

    def test_allof_drops_children(self):
        sim = engine.Simulator()
        c, d = sim.event(), sim.event()
        both = engine.all_of(sim, [c, d])
        c.trigger("c")
        d.trigger("d")
        assert both.ok and both.value == ["c", "d"]
        assert both.events == ()

    def test_many_callbacks_fire_in_registration_order(self):
        """The single-slot + overflow-list split must preserve order."""
        sim = engine.Simulator()
        ev = sim.event()
        order = []
        for i in range(5):
            ev.add_callback(lambda _ev, i=i: order.append(i))
        ev.trigger()
        assert order == [0, 1, 2, 3, 4]
