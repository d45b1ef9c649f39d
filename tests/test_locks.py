"""Unit tests for the coordinator-local block lock table."""

import pytest

from repro.core.locks import BlockLockTable, LockMode
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def locks(sim):
    return BlockLockTable(sim)


def acquire_now(sim, locks, blocks, mode):
    """Run an acquisition to completion; returns the token."""
    return sim.run_process(locks.acquire(blocks, mode))


class TestBasics:
    def test_uncontended_write_lock(self, sim, locks):
        token = acquire_now(sim, locks, [1, 2], LockMode.WRITE)
        assert locks.held(1) and locks.held(2)
        locks.release(token)
        assert not locks.held(1)

    def test_shared_readers(self, sim, locks):
        t1 = acquire_now(sim, locks, [1], LockMode.READ)
        t2 = acquire_now(sim, locks, [1], LockMode.READ)
        assert locks.held(1)
        locks.release(t1)
        assert locks.held(1)
        locks.release(t2)
        assert not locks.held(1)

    def test_writer_excludes_reader(self, sim, locks):
        token = acquire_now(sim, locks, [1], LockMode.WRITE)
        reader = sim.spawn(locks.acquire([1], LockMode.READ))
        sim.run()
        assert not reader.settled
        locks.release(token)
        sim.run()
        assert reader.settled

    def test_reader_excludes_writer(self, sim, locks):
        token = acquire_now(sim, locks, [1], LockMode.READ)
        writer = sim.spawn(locks.acquire([1], LockMode.WRITE))
        sim.run()
        assert not writer.settled
        locks.release(token)
        sim.run()
        assert writer.settled

    def test_duplicate_blocks_collapsed(self, sim, locks):
        token = acquire_now(sim, locks, [3, 3, 3], LockMode.WRITE)
        assert token.blocks == (3,)
        locks.release(token)

    def test_release_unheld_raises(self, sim, locks):
        token = acquire_now(sim, locks, [1], LockMode.READ)
        locks.release(token)
        with pytest.raises(RuntimeError):
            locks.release(token)

    def test_release_survives_a_waiter_that_releases_at_once(self, sim, locks):
        """Releasing wakes the next waiter inline; one that releases the
        same block before yielding again drops the block's state, and
        the outer release must not delete it a second time."""
        token = acquire_now(sim, locks, [7], LockMode.WRITE)

        def hand_back():
            inner = yield from locks.acquire([7], LockMode.WRITE)
            locks.release(inner)
            yield sim.timeout(1.0)

        waiter = sim.spawn(hand_back())
        sim.run(until=0.5)
        locks.release(token)  # KeyError here before the fix
        sim.run()
        assert waiter.ok and not locks.held(7)
        assert acquire_now(sim, locks, [7], LockMode.WRITE).blocks == (7,)

    def test_disjoint_blocks_independent(self, sim, locks):
        acquire_now(sim, locks, [1], LockMode.WRITE)
        t2 = sim.spawn(locks.acquire([2], LockMode.WRITE))
        sim.run()
        assert t2.settled


class TestFairness:
    def test_fifo_prevents_writer_starvation(self, sim, locks):
        """A queued writer blocks later readers (no read-through)."""
        r1 = acquire_now(sim, locks, [1], LockMode.READ)
        writer = sim.spawn(locks.acquire([1], LockMode.WRITE))
        sim.run()
        late_reader = sim.spawn(locks.acquire([1], LockMode.READ))
        sim.run()
        assert not writer.settled and not late_reader.settled
        locks.release(r1)
        sim.run()
        assert writer.settled
        assert not late_reader.settled  # writer goes first
        locks.release(writer.value)
        sim.run()
        assert late_reader.settled

    def test_waiters_count(self, sim, locks):
        acquire_now(sim, locks, [1], LockMode.WRITE)
        sim.spawn(locks.acquire([1], LockMode.READ))
        sim.spawn(locks.acquire([1], LockMode.WRITE))
        sim.run()
        assert locks.waiters(1) == 2

    def test_batch_of_readers_released_together(self, sim, locks):
        token = acquire_now(sim, locks, [1], LockMode.WRITE)
        readers = [sim.spawn(locks.acquire([1], LockMode.READ)) for _ in range(3)]
        sim.run()
        locks.release(token)
        sim.run()
        assert all(reader.settled for reader in readers)


class TestMultiBlock:
    def test_ordered_acquisition_no_deadlock(self, sim, locks):
        """Two processes locking overlapping sets in different order."""

        def worker(blocks):
            token = yield from locks.acquire(blocks, LockMode.WRITE)
            yield sim.timeout(1.0)
            locks.release(token)
            return True

        a = sim.spawn(worker([1, 2, 3]))
        b = sim.spawn(worker([3, 2, 1]))
        sim.run()
        assert a.ok and b.ok

    def test_many_concurrent_workers_all_finish(self, sim, locks):
        rng = __import__("random").Random(0)

        def worker():
            blocks = rng.sample(range(8), 3)
            token = yield from locks.acquire(blocks, LockMode.WRITE)
            yield sim.timeout(rng.uniform(0.1, 2.0))
            locks.release(token)
            return True

        workers = [sim.spawn(worker()) for _ in range(50)]
        sim.run()
        assert all(w.ok for w in workers)

    def test_mutual_exclusion_invariant(self, sim, locks):
        """At no instant do two writers hold the same block."""
        holding = {}
        violations = []

        def worker(tag):
            token = yield from locks.acquire([5], LockMode.WRITE)
            if holding:
                violations.append((tag, dict(holding)))
            holding[tag] = True
            yield sim.timeout(1.0)
            del holding[tag]
            locks.release(token)

        for tag in range(10):
            sim.spawn(worker(tag))
        sim.run()
        assert violations == []


class TestTryAcquire:
    def test_try_acquire_success(self, sim, locks):
        token = locks.try_acquire([1, 2], LockMode.WRITE)
        assert token is not None
        locks.release(token)

    def test_try_acquire_fails_on_contention(self, sim, locks):
        acquire_now(sim, locks, [1], LockMode.WRITE)
        assert locks.try_acquire([1], LockMode.READ) is None

    def test_try_acquire_fails_when_queue_nonempty(self, sim, locks):
        acquire_now(sim, locks, [1], LockMode.READ)
        sim.spawn(locks.acquire([1], LockMode.WRITE))
        sim.run()
        # Read would be grantable, but FIFO fairness forbids jumping the queue.
        assert locks.try_acquire([1], LockMode.READ) is None

    def test_try_acquire_all_or_nothing(self, sim, locks):
        acquire_now(sim, locks, [2], LockMode.WRITE)
        assert locks.try_acquire([1, 2], LockMode.WRITE) is None
        assert not locks.held(1)  # block 1 must not be left locked
