"""Edge cases of the replicated memory API."""


from repro.core import SiftConfig, SiftGroup
from repro.core.errors import InvalidAccess
from repro.core.membership import RESERVED_BYTES
from repro.net import Fabric
from repro.sim import MS, SEC, Simulator

BASE = RESERVED_BYTES


def make_group(**overrides):
    sim = Simulator()
    fabric = Fabric(sim)
    defaults = dict(fm=1, fc=1, data_bytes=64 * 1024, wal_entries=64)
    defaults.update(overrides)
    group = SiftGroup(fabric, SiftConfig(**defaults), name="edge")
    group.start()
    return sim, fabric, group


def run(sim, gen, until=30 * SEC):
    process = sim.spawn(gen)
    sim.run_until_settled(process, deadline=until)
    assert process.settled, "scenario did not finish"
    if process.failed:
        raise process.exception
    return process.value


class TestEdgeCases:
    def test_zero_length_read(self):
        sim, _f, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            return (yield from coord.repmem.read(BASE, 0))

        assert run(sim, scenario()) == b""

    def test_empty_write_commits(self):
        sim, _f, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.write(BASE, b"")
            return True

        assert run(sim, scenario())

    def test_write_at_last_byte(self):
        sim, _f, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.write(64 * 1024 - 1, b"Z")
            return (yield from coord.repmem.read(64 * 1024 - 1, 1))

        assert run(sim, scenario()) == b"Z"

    def test_negative_read_rejected(self):
        sim, _f, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            try:
                yield from coord.repmem.read(-4, 4)
            except InvalidAccess:
                return "rejected"

        assert run(sim, scenario()) == "rejected"

    def test_multi_write_many_blocks(self):
        sim, _f, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            writes = [(BASE + index * 1024, bytes([index]) * 16) for index in range(12)]
            yield from coord.repmem.multi_write(writes)
            out = []
            for index in range(12):
                out.append((yield from coord.repmem.read(BASE + index * 1024, 16)))
            return out

        out = run(sim, scenario())
        assert out == [bytes([index]) * 16 for index in range(12)]

    def test_multi_write_empty_list(self):
        sim, _f, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.multi_write([])
            return True

        assert run(sim, scenario())

    def test_interleaved_reads_and_writes_same_block(self):
        sim, _f, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            results = []

            def writer():
                for value in range(20):
                    yield from rm.write(BASE, bytes([value]) * 8)

            def reader():
                for _ in range(20):
                    data = yield from rm.read(BASE, 8)
                    results.append(data)

            w = coord.host.spawn(writer())
            r = coord.host.spawn(reader())
            yield w
            yield r
            return results

        results = run(sim, scenario())
        # Every read observes a whole write, never a torn one.
        for data in results:
            assert len(set(data)) <= 1

    def test_stats_counters_move(self):
        sim, _f, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            yield from rm.write(BASE, b"x" * 100)
            yield from rm.read(BASE, 100)
            return dict(rm.stats)

        stats = run(sim, scenario())
        assert stats["writes_committed"] >= 1
        assert stats["entries_logged"] >= 1
        assert stats["remote_reads"] >= 1
        assert stats["applies_posted"] >= 1

    def test_fm2_group_end_to_end(self):
        sim, _f, group = make_group(fm=2)

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.write(BASE, b"five-nodes")
            return (yield from coord.repmem.read(BASE, 10))

        assert run(sim, scenario()) == b"five-nodes"

    def test_fm2_ec_chunking(self):
        sim, _f, group = make_group(
            fm=2, erasure_coding=True, direct_bytes=8 * 1024, data_bytes=128 * 1024
        )

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=3 * SEC)
            rm = coord.repmem
            yield from rm.write(16 * 1024, b"W" * 1024)
            # Two failures tolerated with Fm=2.
            group.crash_memory_node(0)
            group.crash_memory_node(3)
            yield sim.timeout(5 * MS)
            return (yield from rm.read(16 * 1024, 1024))

        assert run(sim, scenario()) == b"W" * 1024

    def test_read_skips_a_node_dropped_while_it_waited(self):
        """A read walks the live nodes in turn across yields.  If a
        concurrent verb failure marks a later node dead (popping its
        queue pair) while an earlier node's read is timing out, the walk
        skips that node instead of dying of ``KeyError``."""
        sim, fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            repmem = coord.repmem
            yield from repmem.write(BASE, b"survives")
            live = sorted(repmem.qps)
            start = (repmem._read_rr + 1) % len(live)
            first, second, third = live[start:] + live[:start]
            fabric.isolate(group.memory_nodes[first].host.name)
            sim.schedule(500.0, repmem.mark_node_dead, second)
            data = yield from repmem.read(BASE, 8)
            return data, sorted(repmem.qps), third

        data, qps, third = run(sim, scenario())
        assert data == b"survives" and qps == [third]
