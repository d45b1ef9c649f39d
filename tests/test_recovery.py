"""Recovery tests (§3.4): log recovery, node recovery, trust handling."""


from repro.core import SiftConfig, SiftGroup
from repro.core.membership import RESERVED_BYTES
from repro.core.replicated_memory import NodeState
from repro.net import Fabric
from repro.sim import MS, SEC, Simulator
from repro.storage.wal import WalCodec, WalEntry
from tests.testing import make_kv_stack, run_scenario

BASE = RESERVED_BYTES


def make_group(**overrides):
    sim = Simulator()
    fabric = Fabric(sim)
    defaults = dict(
        fm=1,
        fc=1,
        data_bytes=64 * 1024,
        wal_entries=64,
        memnode_poll_interval_us=20 * MS,
    )
    defaults.update(overrides)
    group = SiftGroup(fabric, SiftConfig(**defaults), name="r")
    group.start()
    return sim, fabric, group


def run(sim, gen, until=60 * SEC):
    process = sim.spawn(gen)
    sim.run_until_settled(process, deadline=until)
    assert process.settled, "scenario did not finish"
    if process.failed:
        raise process.exception
    return process.value


class TestCoordinatorRecovery:
    def test_committed_writes_survive_failover(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(20):
                yield from coord.repmem.write(BASE + index * 512, b"v%02d" % index)
            coord.crash()
            successor = yield from group.wait_until_serving(timeout_us=3 * SEC)
            values = []
            for index in range(20):
                values.append((yield from successor.repmem.read(BASE + index * 512, 3)))
            return values

        values = run(sim, scenario())
        assert values == [b"v%02d" % index for index in range(20)]

    def test_log_index_continues_after_recovery(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            for _ in range(10):
                yield from coord.repmem.write(BASE, b"x")
            old_next = coord.repmem.next_index
            coord.crash()
            successor = yield from group.wait_until_serving(timeout_us=3 * SEC)
            return old_next, successor.repmem.next_index

        old_next, new_next = run(sim, scenario())
        assert new_next >= old_next

    def test_repeated_failovers_preserve_data(self):
        sim, _fabric, group = make_group(fc=2)

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.write(BASE, b"durable")
            for _round in range(3):
                coordinator = group.serving_coordinator()
                coordinator.crash()
                coordinator.restart()
                coordinator = yield from group.wait_until_serving(timeout_us=5 * SEC)
            return (yield from coordinator.repmem.read(BASE, 7))

        assert run(sim, scenario()) == b"durable"

    def test_divergent_minority_suffix_discarded(self):
        """A deposed coordinator's unacked entries on one node must not
        override the successor's log (the term rule, §3.4.1)."""
        sim, fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.write(BASE, b"committed")
            # Fabricate a divergent uncommitted suffix on memory node 0, as
            # if a stale coordinator kept writing to it alone: same index
            # range, OLDER term.
            node = group.memory_nodes[0]
            repmem = coord.repmem
            stale_index = repmem.next_index
            stale_entry = WalEntry(stale_index, BASE, b"stale!!!!", term=0)
            codec = WalCodec(repmem.wal_layout)
            node.repmem_region.write(
                repmem.wal_layout.slot_offset(stale_index), codec.encode(stale_entry)
            )
            coord.crash()
            successor = yield from group.wait_until_serving(timeout_us=3 * SEC)
            return (yield from successor.repmem.read(BASE, 9))

        assert run(sim, scenario()) == b"committed"

    def test_higher_term_entry_wins_at_same_index(self):
        sim, fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.write(BASE, b"old-value")
            # The successor (higher term) will write at fresh indices; a
            # leftover same-index lower-term entry must lose.  Drive the
            # real flow: crash, let the successor write, crash again, and
            # check a third recovery converges on the successor's data.
            coord.crash()
            second = yield from group.wait_until_serving(timeout_us=3 * SEC)
            yield from second.repmem.write(BASE, b"new-value")
            second.crash()
            coord.restart()
            third = yield from group.wait_until_serving(timeout_us=3 * SEC)
            return (yield from third.repmem.read(BASE, 9))

        assert run(sim, scenario()) == b"new-value"


class TestMemoryNodeRecovery:
    def test_full_cycle(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            yield from rm.write(BASE, b"before-crash")
            group.crash_memory_node(2)
            for index in range(10):
                yield from rm.write(BASE + 1024 + index * 512, b"during")
            yield sim.timeout(5 * MS)
            assert rm.states[2] == NodeState.DEAD
            group.restart_memory_node(2)
            deadline = sim.now + 20 * SEC
            while rm.states[2] != NodeState.LIVE and sim.now < deadline:
                yield sim.timeout(10 * MS)
            assert rm.states[2] == NodeState.LIVE
            assert 2 in rm.membership.members
            # The recovered node holds the full state: read from it alone.
            offset = rm.amap.raw_extent(BASE)
            return group.memory_nodes[2].repmem_region.read(offset, 12)

        assert run(sim, scenario()) == b"before-crash"

    def test_writes_continue_during_recovery(self):
        sim, _fabric, group = make_group(data_bytes=256 * 1024, recovery_chunk_bytes=8 * 1024)

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            group.crash_memory_node(1)
            yield from rm.write(BASE, b"detect")  # verb timeout marks it dead
            yield sim.timeout(5 * MS)
            assert rm.states[1] == NodeState.DEAD
            group.restart_memory_node(1)
            writes = 0
            deadline = sim.now + 30 * SEC
            while rm.states[1] != NodeState.LIVE and sim.now < deadline:
                yield from rm.write(BASE + (writes % 32) * 1024, b"live-traffic")
                writes += 1
            assert rm.states[1] == NodeState.LIVE
            return writes

        writes = run(sim, scenario(), until=90 * SEC)
        assert writes > 0

    def test_status_word_guards_untrusted_nodes(self):
        """A restarted (wiped) member must not be trusted by a successor
        coordinator before it has been re-copied."""
        sim, _fabric, group = make_group(memnode_poll_interval_us=10 * SEC)

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            yield from rm.write(BASE, b"precious")
            # Node 2 dies and comes back empty; the poll interval is long,
            # so it has NOT been re-copied when the coordinator dies.
            group.crash_memory_node(2)
            yield from rm.write(BASE + 1024, b"more")  # detects the death
            yield sim.timeout(5 * MS)
            group.restart_memory_node(2)
            coord.crash()
            successor = yield from group.wait_until_serving(timeout_us=5 * SEC)
            # The zeroed node must be excluded from serving.
            assert successor.repmem.states[2] != NodeState.LIVE
            return (yield from successor.repmem.read(BASE, 8))

        assert run(sim, scenario()) == b"precious"

    def test_ec_node_recovery_rebuilds_chunks(self):
        sim, _fabric, group = make_group(
            erasure_coding=True, direct_bytes=8 * 1024, data_bytes=64 * 1024
        )

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            yield from rm.write(16 * 1024, b"S" * 1024)
            group.crash_memory_node(2)  # the parity node
            yield from rm.write(17 * 1024, b"T" * 1024)
            yield sim.timeout(5 * MS)
            group.restart_memory_node(2)
            deadline = sim.now + 30 * SEC
            while rm.states[2] != NodeState.LIVE and sim.now < deadline:
                yield sim.timeout(10 * MS)
            assert rm.states[2] == NodeState.LIVE
            # Kill a data node; reads must now decode using the parity the
            # recovery rebuilt on node 2.
            group.crash_memory_node(0)
            yield sim.timeout(5 * MS)
            a = yield from rm.read(16 * 1024, 1024)
            b = yield from rm.read(17 * 1024, 1024)
            return a, b

        a, b = run(sim, scenario(), until=90 * SEC)
        assert a == b"S" * 1024
        assert b == b"T" * 1024


def test_a_put_between_a_fragments_read_and_write_survives_the_copy():
    """§3.4.2's copy read-locks a fragment from its read until its write
    lands on the recovering node.  A put whose direct writes (bucket head,
    block, bitmap word) reach that fragment in between must wait for the
    lock: posted earlier, it would be overwritten on the recovered node by
    the peer's bytes from before the put."""
    sim, _fabric, group, client = make_kv_stack(max_keys=256, seed=0)
    run_scenario(sim, group.wait_until_serving(timeout_us=2 * SEC))
    coordinator = group.serving_coordinator()
    app, repmem = coordinator.app, coordinator.repmem
    app.preload((b"key-%d" % i, b"%d" % i * 90) for i in range(128))
    key = b"raced-key"
    head = app.layout.bucket_addr(app.layout.bucket_of(key))
    raw_read, raced = repmem._raw_read, []

    def copy_read(addr, length, *share):
        data = yield from raw_read(addr, length, *share)
        if addr <= head < addr + length and not raced:  # only the copy reads bucket heads
            raced.append(sim.spawn(client.put(key, b"a value no peer held before")))
            yield sim.timeout(5 * MS)  # the put commits and applies meanwhile
        return data

    repmem._raw_read = copy_read

    def load():
        group.crash_memory_node(2)
        yield from client.put(b"key-0", b"detects the crash")  # its verb timeout does
        yield sim.timeout(5 * MS)
        assert repmem.states[2] == NodeState.DEAD
        group.restart_memory_node(2)
        while repmem.states[2] != NodeState.LIVE:
            yield sim.timeout(10 * MS)
        yield sim.timeout(50 * MS)  # let the appliers drain

    run_scenario(sim, load(), until=30 * SEC)
    assert raced and raced[0].ok
    nodes = group.memory_nodes
    at, size = repmem.amap.raw_extent(0), repmem.config.data_bytes
    assert nodes[2].repmem_region.read(at, size) == nodes[0].repmem_region.read(at, size)


class TestBootstrapAndMembership:
    def test_fresh_group_bootstraps_all_members(self):
        sim, _fabric, group = make_group()
        sim.run(until=500 * MS)
        coordinator = group.serving_coordinator()
        assert coordinator.repmem.membership.members == frozenset({0, 1, 2})

    def test_membership_epoch_grows_across_recoveries(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            first_epoch = coord.repmem.membership.epoch
            coord.crash()
            successor = yield from group.wait_until_serving(timeout_us=3 * SEC)
            return first_epoch, successor.repmem.membership.epoch

        first_epoch, second_epoch = run(sim, scenario())
        assert second_epoch > first_epoch

    def test_dead_member_removed_from_membership(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            group.crash_memory_node(0)
            yield from coord.repmem.write(BASE, b"trigger-detection")
            yield sim.timeout(10 * MS)
            return coord.repmem.membership.members

        members = run(sim, scenario())
        assert 0 not in members
