"""Partitioned memory-node recovery (RAMCloud-style, §3.4.2 extended).

Covers the parallel copy path end to end: correctness of the rebuilt
bytes, fallback rules (partitions=1, erasure coding), the fenced
``repmem-recovery`` export, the verify step that gates the status
stamp, crash of a source mid-copy, coordinator failover mid-recovery,
and linearizability of client traffic while a partitioned recovery is
running.
"""

from types import SimpleNamespace

import pytest

from repro.bench.lincheck import History, RecordingClient, check_history
from repro.core import SiftConfig, SiftGroup
from repro.core.errors import RecoveryIntegrityError
from repro.core.membership import RESERVED_BYTES
from repro.core.recovery import MemoryNodeRecoveryManager, PartitionProgress
from repro.kv import KvClient, KvConfig, kv_app_factory
from repro.net import Fabric
from repro.rdma.errors import RdmaConnectionRevoked
from repro.rdma.listener import RdmaListener
from repro.rdma.memory import MemoryRegion
from repro.rdma.qp import QpState, QueuePair
from repro.sim import MS, SEC, Simulator
from repro.storage.memory_node import (
    RECOVERY_REGION,
    REPMEM_REGION,
    STATUS_INITIALISED,
    STATUS_OFFSET,
)


def make_group(**overrides):
    sim = Simulator()
    fabric = Fabric(sim)
    defaults = dict(
        fm=1,
        fc=1,
        data_bytes=1024 * 1024,
        wal_entries=64,
        memnode_poll_interval_us=20 * MS,
    )
    defaults.update(overrides)
    group = SiftGroup(fabric, SiftConfig(**defaults), name="pr")
    group.start()
    return sim, fabric, group


def run(sim, gen, until=120 * SEC):
    process = sim.spawn(gen)
    sim.run_until_settled(process, deadline=until)
    assert process.settled, "scenario did not finish"
    if process.failed:
        raise process.exception
    return process.value


def write_some(coord, count=32):
    """Process: log *count* distinct values so applies flow to every node."""
    for index in range(count):
        yield from coord.repmem.write(
            RESERVED_BYTES + index * 1024, b"val-%04d" % index
        )


def data_matches(group, a, b, length=None):
    """Byte-compare the logical data span of two memory nodes' regions."""
    coord = group.serving_coordinator()
    offset = coord.repmem.amap.raw_extent(0)
    length = length if length is not None else coord.repmem.config.data_bytes
    step = 256 * 1024
    ra = group.memory_nodes[a].repmem_region
    rb = group.memory_nodes[b].repmem_region
    position = 0
    while position < length:
        take = min(step, length - position)
        if ra.read(offset + position, take) != rb.read(offset + position, take):
            return False
        position += take
    return True


def crash_restart_and_recover(sim, group, node=2, gap_us=50 * MS):
    """Process: fail *node*, bring it back, wait until it serves again.

    Returns the coordinator's copy stats for the recovery.
    """
    coord = yield from group.wait_until_serving(timeout_us=5 * SEC)
    yield from write_some(coord)
    group.memory_nodes[node].crash()
    yield sim.timeout(gap_us)
    group.memory_nodes[node].restart()
    while coord.repmem.states[node] != "live":
        yield sim.timeout(2 * MS)
    yield sim.timeout(50 * MS)  # let background applies drain
    return coord.recovery_manager.copy_stats.get(node)


class TestPartitionedCopy:
    @pytest.mark.parametrize("partitions", [2, 4])
    def test_partitioned_copy_rebuilds_the_node(self, partitions):
        sim, _fabric, group = make_group(fm=2, recovery_partitions=partitions)

        def scenario():
            stats = yield from crash_restart_and_recover(sim, group)
            return stats

        stats = run(sim, scenario())
        assert stats["partitions"] == partitions
        assert stats["bytes"] == group.config.data_bytes
        assert len(stats["sources"]) == min(partitions, 4)
        assert 2 not in stats["sources"], "the target cannot source itself"
        assert data_matches(group, 0, 2)

    def test_partitions_one_keeps_the_single_stream(self):
        sim, _fabric, group = make_group(recovery_partitions=1)
        stats = run(sim, crash_restart_and_recover(sim, group))
        assert stats["partitions"] == 1
        assert stats["sources"] == []  # coordinator-driven, no pushers
        assert data_matches(group, 0, 2)

    def test_erasure_coding_falls_back_to_the_single_stream(self):
        sim, _fabric, group = make_group(
            erasure_coding=True,
            recovery_partitions=4,
            direct_bytes=8 * 1024,
            data_bytes=64 * 1024,
        )
        stats = run(sim, crash_restart_and_recover(sim, group))
        assert stats["partitions"] == 1, "EC must use the coordinator stream"
        assert stats["sources"] == []

    def test_more_partitions_than_sources(self):
        # fm=1 leaves two live sources; sixteen partitions round-robin
        # over them and the copy must still tile exactly.
        sim, _fabric, group = make_group(recovery_partitions=16)
        stats = run(sim, crash_restart_and_recover(sim, group))
        assert stats["partitions"] == 16
        assert sorted(stats["sources"]) == [0, 1]
        assert stats["bytes"] == group.config.data_bytes
        assert data_matches(group, 0, 2)

    def test_status_stamped_only_after_copy_completes(self):
        sim, _fabric, group = make_group(fm=2, recovery_partitions=4)
        observations = []

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=5 * SEC)
            yield from write_some(coord)
            node = group.memory_nodes[2]
            node.crash()
            yield sim.timeout(50 * MS)
            node.restart()

            def monitor():
                # Direct (simulator-side) view of the status word: it must
                # flip 0 -> INITIALISED exactly once, and the node's data
                # must already be fully copied at the instant of the flip.
                while True:
                    word = node.meta_region.read_word(STATUS_OFFSET)
                    if word == STATUS_INITIALISED:
                        stats = coord.recovery_manager.copy_stats.get(2)
                        observations.append(stats)
                        return
                    yield sim.timeout(1 * MS)

            monitor_proc = sim.spawn(monitor())
            while coord.repmem.states[2] != "live":
                yield sim.timeout(2 * MS)
            yield monitor_proc

        run(sim, scenario())
        assert observations, "status word never flipped to INITIALISED"
        stats = observations[0]
        assert stats is not None, "stamp happened before the copy verified"
        assert stats["bytes"] == group.config.data_bytes


class TestFailuresDuringPartitionedRecovery:
    def test_source_crash_mid_copy_retries_and_recovers(self):
        # fm=2: crash node 2, then kill source node 0 while the copy is
        # running.  The attempt aborts, the poller retries with the
        # remaining sources, and both nodes eventually rejoin.
        sim, _fabric, group = make_group(
            fm=2, recovery_partitions=4, data_bytes=4 * 1024 * 1024
        )

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=5 * SEC)
            yield from write_some(coord)
            group.memory_nodes[2].crash()
            yield sim.timeout(50 * MS)
            group.memory_nodes[2].restart()
            while coord.repmem.states[2] != "recovering":
                yield sim.timeout(200)
            group.memory_nodes[0].crash()  # a pusher dies mid-fragment
            # Leave the source down across several retry attempts: pushes
            # toward it time out on the deterministic budget and the
            # attempt aborts cleanly each round.
            yield sim.timeout(100 * MS)
            group.memory_nodes[0].restart()
            deadline = sim.now + 30 * SEC
            while sim.now < deadline:
                states = coord.repmem.states
                if states[0] == "live" and states[2] == "live":
                    break
                yield sim.timeout(5 * MS)
            yield sim.timeout(50 * MS)
            return dict(coord.repmem.states)

        states = run(sim, scenario())
        assert states[0] == "live" and states[2] == "live"
        assert data_matches(group, 1, 2)
        assert data_matches(group, 1, 0)

    def test_restarted_source_refuses_and_is_recovered_first(self):
        # A source that crashes AND restarts while no apply traffic runs
        # is still marked live in the coordinator's state map, but its
        # cleared region must never feed the rejoining node: the push
        # command is refused (UntrustedSourceError), the coordinator
        # marks the zombie dead, recovers it, and only then does the
        # original target recover — from trustworthy sources.
        sim, _fabric, group = make_group(
            fm=2, recovery_partitions=4, data_bytes=4 * 1024 * 1024
        )

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=5 * SEC)
            yield from write_some(coord)
            group.memory_nodes[2].crash()
            yield sim.timeout(50 * MS)
            group.memory_nodes[2].restart()
            while coord.repmem.states[2] != "recovering":
                yield sim.timeout(200)
            # Crash AND restart the source before the retry: no apply
            # fails toward it, so only the push-time attestation can
            # expose the restart.
            group.memory_nodes[0].crash()
            yield sim.timeout(30 * MS)
            group.memory_nodes[0].restart()
            deadline = sim.now + 30 * SEC
            while sim.now < deadline:
                states = coord.repmem.states
                if states[0] == "live" and states[2] == "live":
                    break
                yield sim.timeout(5 * MS)
            yield sim.timeout(50 * MS)
            return dict(coord.repmem.states), dict(coord.recovery_manager.copy_stats)

        states, stats = run(sim, scenario())
        assert states[0] == "live" and states[2] == "live"
        # The copy that finally rebuilt node 2 must not have trusted the
        # zombie incarnation of node 0.
        assert 0 not in stats[2]["sources"]
        assert stats[2]["bytes"] == group.config.data_bytes
        assert data_matches(group, 1, 2)
        assert data_matches(group, 1, 0)

    def test_coordinator_failover_mid_recovery(self):
        # Crash the coordinator while node 2 is mid-copy: the successor
        # runs log recovery, restarts node recovery from scratch, and
        # the fenced recovery window keeps any stale pushers out.
        sim, _fabric, group = make_group(
            fm=2, recovery_partitions=4, data_bytes=4 * 1024 * 1024
        )

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=5 * SEC)
            yield from write_some(coord)
            group.memory_nodes[2].crash()
            yield sim.timeout(50 * MS)
            group.memory_nodes[2].restart()
            while coord.repmem.states[2] != "recovering":
                yield sim.timeout(200)
            group.crash_coordinator()
            successor = yield from group.wait_until_serving(timeout_us=10 * SEC)
            while successor.repmem.states[2] != "live":
                yield sim.timeout(5 * MS)
            yield sim.timeout(50 * MS)
            stats = successor.recovery_manager.copy_stats.get(2)
            values = []
            for index in range(32):
                values.append(
                    (yield from successor.repmem.read(RESERVED_BYTES + index * 1024, 8))
                )
            return stats, values

        stats, values = run(sim, scenario())
        assert stats is not None and stats["bytes"] == group.config.data_bytes
        assert stats["partitions"] == 4  # the successor re-ran the partitioned path
        assert values == [b"val-%04d" % index for index in range(32)]
        assert data_matches(group, 0, 2)


class TestRecoveryFencing:
    """The ``repmem-recovery`` alias and its §3.2-style fencing."""

    def test_alias_shares_backing_pages(self):
        region = MemoryRegion("primary", 8192)
        view = region.alias("view")
        region.write(4096, b"hello")
        assert view.read(4096, 5) == b"hello"
        view.write(0, b"back")
        assert region.read(0, 4) == b"back"
        assert view.size == region.size

    def test_reattaching_the_primary_revokes_pushers(self):
        sim = Simulator()
        fabric = Fabric(sim)
        target = fabric.add_host("target")
        coordinator = fabric.add_host("coordinator")
        pusher_host = fabric.add_host("pusher")
        from repro.rdma.nic import Rnic

        listener = RdmaListener(target)
        primary = MemoryRegion(REPMEM_REGION, 4096)
        listener.export(primary, exclusive=True)
        listener.export(
            primary.alias(RECOVERY_REGION), fenced_by=REPMEM_REGION
        )

        coord_nic = Rnic(coordinator, fabric)
        pusher_nic = Rnic(pusher_host, fabric)
        pusher_qp = QueuePair(pusher_nic, listener, name="pusher")
        old_coord_qp = QueuePair(coord_nic, listener, name="old-coord")
        new_coord_qp = QueuePair(coord_nic, listener, name="new-coord")

        def scenario():
            yield coordinator.spawn(old_coord_qp.connect([REPMEM_REGION]))
            yield pusher_host.spawn(pusher_qp.connect([RECOVERY_REGION]))
            assert pusher_qp.state is QpState.CONNECTED
            # A successor coordinator claims the primary region: both the
            # old holder AND the subordinate pusher must lose access.
            yield coordinator.spawn(new_coord_qp.connect([REPMEM_REGION]))
            assert old_coord_qp.state is QpState.REVOKED
            assert pusher_qp.state is QpState.REVOKED
            try:
                yield pusher_qp.write(RECOVERY_REGION, 0, b"stale")
            except RdmaConnectionRevoked:
                return True
            return False

        process = sim.spawn(scenario())
        sim.run_until_settled(process, deadline=1 * SEC)
        assert process.settled and not process.failed, getattr(
            process, "exception", None
        )
        assert process.value is True

    def test_pusher_does_not_revoke_the_primary(self):
        sim = Simulator()
        fabric = Fabric(sim)
        target = fabric.add_host("target")
        coordinator = fabric.add_host("coordinator")
        from repro.rdma.nic import Rnic

        listener = RdmaListener(target)
        primary = MemoryRegion(REPMEM_REGION, 4096)
        listener.export(primary, exclusive=True)
        listener.export(primary.alias(RECOVERY_REGION), fenced_by=REPMEM_REGION)
        coord_nic = Rnic(coordinator, fabric)
        coord_qp = QueuePair(coord_nic, listener, name="coord")
        pusher_qp = QueuePair(coord_nic, listener, name="pusher")

        def scenario():
            yield coordinator.spawn(coord_qp.connect([REPMEM_REGION]))
            yield coordinator.spawn(pusher_qp.connect([RECOVERY_REGION]))
            assert coord_qp.state is QpState.CONNECTED
            assert pusher_qp.state is QpState.CONNECTED

        process = sim.spawn(scenario())
        sim.run_until_settled(process, deadline=1 * SEC)
        assert process.settled and not process.failed


class TestVerifyStep:
    """Pure-arithmetic checks of the merge/verify gate."""

    def _manager(self, data_bytes=1024):
        repmem = SimpleNamespace(config=SiftConfig(data_bytes=data_bytes))
        return MemoryNodeRecoveryManager(repmem)

    def _progress(self, index, start, end, fragments):
        progress = PartitionProgress(index, None, start, end, 0.0)
        for addr, length in fragments:
            progress.done.append((addr, length))
            progress.bytes_done += length
        return progress

    def test_exact_tiling_passes(self):
        manager = self._manager(1024)
        parts = [
            self._progress(0, 0, 512, [(0, 256), (256, 256)]),
            self._progress(1, 512, 1024, [(512, 512)]),
        ]
        manager._verify_copy(2, parts)  # must not raise

    def test_gap_rejected(self):
        manager = self._manager(1024)
        parts = [
            self._progress(0, 0, 512, [(0, 256)]),
            self._progress(1, 512, 1024, [(512, 512)]),
        ]
        parts[0].bytes_done = 512  # lie about the total; the tiling still has a hole
        with pytest.raises(RecoveryIntegrityError):
            manager._verify_copy(2, parts)

    def test_overlap_rejected(self):
        manager = self._manager(1024)
        parts = [
            self._progress(0, 0, 512, [(0, 512)]),
            self._progress(1, 512, 1024, [(256, 512)]),
        ]
        with pytest.raises(RecoveryIntegrityError):
            manager._verify_copy(2, parts)

    def test_short_partition_rejected(self):
        manager = self._manager(1024)
        parts = [self._progress(0, 0, 1024, [(0, 512)])]
        with pytest.raises(RecoveryIntegrityError):
            manager._verify_copy(2, parts)

    def test_short_image_rejected(self):
        manager = self._manager(2048)
        parts = [self._progress(0, 0, 1024, [(0, 1024)])]
        with pytest.raises(RecoveryIntegrityError):
            manager._verify_copy(2, parts)


class TestLincheckDuringPartitionedRecovery:
    @pytest.mark.parametrize("partitions", [1, 4, 16])
    def test_history_linearizable_across_partitioned_recovery(self, partitions):
        """Concurrent clients while a memory node fails, restarts, and is
        re-populated by the partitioned copy: every acked write survives
        and no read observes a half-copied region."""
        sim = Simulator()
        fabric = Fabric(sim)
        kv_config = KvConfig(max_keys=256, wal_entries=128)
        group = SiftGroup(
            fabric,
            kv_config.sift_config(
                fm=1,
                fc=1,
                wal_entries=128,
                memnode_poll_interval_us=30 * MS,
                recovery_partitions=partitions,
            ),
            name=f"linrec{partitions}",
            app_factory=kv_app_factory(kv_config),
        )
        group.start()
        history = History()

        def client_loop(tag):
            host = fabric.add_host(f"lc{tag}", cores=2)
            client = RecordingClient(KvClient(host, fabric, group), history)
            rng = fabric.rng.stream(f"linrec:{tag}")
            for round_number in range(25):
                key = b"key-%d" % rng.randrange(4)
                if rng.random() < 0.5:
                    yield from client.put(key, b"%d:%d" % (tag, round_number))
                else:
                    yield from client.get(key)

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            workers = [sim.spawn(client_loop(tag)) for tag in range(4)]
            yield sim.timeout(15 * MS)
            group.memory_nodes[2].crash()
            yield sim.timeout(25 * MS)
            group.memory_nodes[2].restart()
            for worker in workers:
                yield worker
            # Recovery must complete under the (possibly rotated)
            # serving coordinator before the run ends.
            serving = group.serving_coordinator() or coord
            deadline = sim.now + 30 * SEC
            while sim.now < deadline and serving.repmem.states[2] != "live":
                yield sim.timeout(5 * MS)
            return dict(serving.repmem.states)

        process = sim.spawn(scenario())
        sim.run_until_settled(process, deadline=240 * SEC)
        assert process.settled and process.ok, getattr(process, "exception", None)
        states = process.value
        assert states[2] == "live", f"node 2 never recovered: {states}"
        ok, offender = check_history(history)
        assert ok, f"history not linearizable for key {offender!r}"
        assert len(history.ops) > 50  # the run actually exercised traffic
