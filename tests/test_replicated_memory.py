"""Integration-style tests for the replicated memory layer.

These drive a full SiftGroup (election included) and exercise the §3.3
data path: logged writes, multi-writes, direct windows, WAL flow
control, node-death handling, and erasure-coded addressing.
"""


from repro.core import SiftConfig, SiftGroup
from repro.core.errors import InvalidAccess
from repro.core.membership import RESERVED_BYTES
from repro.net import Fabric
from repro.sim import MS, SEC, Simulator

BASE = RESERVED_BYTES


def make_group(**overrides):
    sim = Simulator()
    fabric = Fabric(sim)
    defaults = dict(fm=1, fc=1, data_bytes=128 * 1024, wal_entries=128)
    defaults.update(overrides)
    config = SiftConfig(**defaults)
    group = SiftGroup(fabric, config, name="t")
    group.start()
    return sim, fabric, group


def run(sim, gen, until=30 * SEC):
    process = sim.spawn(gen)
    sim.run_until_settled(process, deadline=until)
    assert process.settled, "scenario did not finish (deadlock?)"
    if process.failed:
        raise process.exception
    return process.value


class TestDataPath:
    def test_write_then_read(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.write(BASE + 100, b"payload")
            return (yield from coord.repmem.read(BASE + 100, 7))

        assert run(sim, scenario()) == b"payload"

    def test_read_of_unwritten_memory_is_zero(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            return (yield from coord.repmem.read(BASE + 5000, 16))

        assert run(sim, scenario()) == bytes(16)

    def test_write_replicates_to_all_nodes(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.write(BASE, b"everywhere")
            # Wait for background applies to land on every node.
            while coord.repmem.applied_floor() < coord.repmem.next_index - 1:
                yield sim.timeout(1 * MS)
            offset = coord.repmem.amap.raw_extent(BASE)
            return [
                node.repmem_region.read(offset, 10) for node in group.memory_nodes
            ]

        assert run(sim, scenario()) == [b"everywhere"] * 3

    def test_overwrite_same_address(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            for round_number in range(5):
                yield from coord.repmem.write(BASE, b"round-%d" % round_number)
            return (yield from coord.repmem.read(BASE, 7))

        assert run(sim, scenario()) == b"round-4"

    def test_multi_write_is_atomic_against_other_writers(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem

            def pair_writer(value):
                yield from rm.multi_write(
                    [(BASE, bytes([value]) * 64), (BASE + 4096, bytes([value]) * 64)]
                )

            workers = [coord.host.spawn(pair_writer(v)) for v in (1, 2, 3, 4, 5)]
            for worker in workers:
                yield worker
            a = yield from rm.read(BASE, 64)
            b = yield from rm.read(BASE + 4096, 64)
            return a, b

        a, b = run(sim, scenario())
        assert a == b  # never a torn pair

    def test_write_spanning_blocks(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            data = bytes(range(256)) * 12  # 3072 bytes across 4 blocks
            yield from coord.repmem.write(BASE + 900, data)
            return (yield from coord.repmem.read(BASE + 900, len(data))) == data

        assert run(sim, scenario())

    def test_out_of_range_rejected(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            try:
                yield from coord.repmem.write(128 * 1024 - 2, b"xxxx")
            except InvalidAccess:
                return "rejected"

        assert run(sim, scenario()) == "rejected"

    def test_direct_write_and_read(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.direct_write(BASE + 64, b"unlogged")
            data = yield from coord.repmem.direct_read(BASE + 64, 8)
            logged_before = coord.repmem.stats["entries_logged"]
            return data, logged_before

        data, logged = run(sim, scenario())
        assert data == b"unlogged"
        # Only the membership commit was logged; the direct write was not.
        assert logged <= 2

    def test_concurrent_writers_disjoint_addresses(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem

            def writer(index):
                for round_number in range(10):
                    yield from rm.write(BASE + index * 2048, bytes([round_number]) * 100)

            workers = [coord.host.spawn(writer(i)) for i in range(8)]
            for worker in workers:
                yield worker
            reads = []
            for index in range(8):
                reads.append((yield from rm.read(BASE + index * 2048, 100)))
            return reads

        assert run(sim, scenario()) == [bytes([9]) * 100] * 8


class TestWalFlowControl:
    def test_writer_stalls_until_applies_catch_up(self):
        """The circular WAL bounds in-flight writes (§3.3.2 / §4.2)."""
        sim, _fabric, group = make_group(wal_entries=16)

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            for round_number in range(100):  # far more than WAL capacity
                yield from rm.write(BASE + (round_number % 8) * 1024, b"x" * 512)
            assert rm.next_index - rm.applied_floor() <= 16 + 1
            return (yield from rm.read(BASE, 1))

        run(sim, scenario())


class TestNodeFailureHandling:
    def test_connect_survives_a_target_cut_off_mid_fan_out(self):
        """One connect fails at once behind a partition while an earlier
        one is still in flight: the fan-out proceeds with the others
        instead of aborting the simulation on an unobserved death."""
        from repro.core.replicated_memory import ReplicatedMemory

        sim, fabric, group = make_group()
        standby = group.cpu_nodes[1]
        fabric.block(standby.host.name, group.memory_nodes[1].name)
        repmem = ReplicatedMemory(
            standby.host, standby.nic, standby.config, group.memory_nodes
        )
        assert run(sim, repmem.connect()) == 2
        assert sorted(repmem.qps) == [0, 2]

    def test_writes_survive_one_node_death(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            group.crash_memory_node(2)
            for round_number in range(10):
                yield from coord.repmem.write(BASE + round_number * 1024, b"ok")
            yield sim.timeout(5 * MS)  # verb timeouts mark the node dead
            assert coord.repmem.states[2] == "dead"
            assert 2 not in coord.repmem.membership.members
            return (yield from coord.repmem.read(BASE, 2))

        assert run(sim, scenario()) == b"ok"

    def test_quorum_loss_fails_writes(self):
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            group.crash_memory_node(1)
            group.crash_memory_node(2)
            try:
                for _ in range(5):
                    yield from coord.repmem.write(BASE, b"doomed")
                    yield sim.timeout(2 * MS)
            except Exception as exc:
                return type(exc).__name__
            return "no error"

        result = run(sim, scenario())
        assert result in ("GroupUnavailable", "QuorumError", "Deposed")

    def test_write_locks_not_stranded_by_node_death(self):
        """Regression: a node dying mid-apply must release write locks."""
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            yield from rm.write(BASE, b"first")
            group.crash_memory_node(0)
            yield from rm.write(BASE, b"second")  # may be mid-apply at crash
            yield sim.timeout(5 * MS)
            # A third write to the same block must not deadlock.
            yield from rm.write(BASE, b"third")
            return (yield from rm.read(BASE, 5))

        assert run(sim, scenario()) == b"third"


class TestErasureCodedPath:
    def make_ec(self):
        return make_group(
            erasure_coding=True, direct_bytes=8 * 1024, data_bytes=128 * 1024
        )

    def test_full_block_write_roundtrip(self):
        sim, _fabric, group = self.make_ec()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from coord.repmem.write(16 * 1024, b"E" * 1024)
            return (yield from coord.repmem.read(16 * 1024, 1024))

        assert run(sim, scenario()) == b"E" * 1024

    def test_partial_write_promoted_via_rmw(self):
        sim, _fabric, group = self.make_ec()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            yield from rm.write(16 * 1024, b"A" * 1024)
            yield from rm.write(16 * 1024 + 10, b"BB")
            assert rm.stats["rmw_promotions"] >= 1
            return (yield from rm.read(16 * 1024 + 8, 6))

        assert run(sim, scenario()) == b"AABBAA"

    def test_chunks_stored_not_full_replicas(self):
        sim, _fabric, group = self.make_ec()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            yield from rm.write(16 * 1024, b"Z" * 1024)
            while rm.applied_floor() < rm.next_index - 1:
                yield sim.timeout(1 * MS)
            block = rm.amap.block_index(16 * 1024)
            offset = rm.amap.chunk_extent(block)
            chunk_bytes = rm.config.chunk_bytes
            shards = [
                node.repmem_region.read(offset, chunk_bytes)
                for node in group.memory_nodes
            ]
            return shards

        shards = run(sim, scenario())
        # Data shards hold halves of the block; the parity shard differs.
        assert shards[0] == b"Z" * 512
        assert shards[1] == b"Z" * 512
        assert shards[2] != b"Z" * 512  # parity

    def test_degraded_read_uses_parity(self):
        sim, _fabric, group = self.make_ec()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            rm = coord.repmem
            yield from rm.write(16 * 1024, b"Q" * 1024)
            group.crash_memory_node(0)  # a data-shard node
            yield sim.timeout(3 * MS)
            data = yield from rm.read(16 * 1024, 1024)
            return data, rm.stats["ec_decodes"]

        data, decodes = run(sim, scenario())
        assert data == b"Q" * 1024
        assert decodes >= 1

    def test_direct_writes_restricted_to_window(self):
        sim, _fabric, group = self.make_ec()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            try:
                yield from coord.repmem.direct_write(32 * 1024, b"nope")
            except InvalidAccess:
                return "rejected"

        assert run(sim, scenario()) == "rejected"

    def test_node_memory_footprint_reduced(self):
        _sim, _fabric, group = self.make_ec()
        plain = SiftConfig(fm=1, fc=1, data_bytes=128 * 1024, wal_entries=128)
        assert group.config.node_data_bytes < plain.node_data_bytes
