"""Unit tests for the simulated RDMA substrate."""

import pytest

from repro.net import Fabric, Unreachable
from repro.net.fabric import Verdict
from repro.rdma import (
    MemoryRegion,
    QueuePair,
    RdmaConnectionRevoked,
    RdmaError,
    RdmaListener,
    RdmaMessenger,
    RdmaProtectionError,
    RdmaTimeout,
    Rnic,
)
from repro.rdma.qp import QpState
from repro.sim import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    return Fabric(sim)


class TestMemoryRegion:
    def test_read_write_roundtrip(self):
        region = MemoryRegion("r", 1024)
        region.write(100, b"hello")
        assert region.read(100, 5) == b"hello"

    def test_unwritten_bytes_are_zero(self):
        region = MemoryRegion("r", 1024)
        assert region.read(0, 16) == bytes(16)

    def test_cross_page_access(self):
        region = MemoryRegion("r", 4 * 4096)
        data = bytes(range(256)) * 40  # 10240 bytes, spans 3 pages
        region.write(4000, data)
        assert region.read(4000, len(data)) == data

    def test_sparse_backing_only_allocates_touched_pages(self):
        region = MemoryRegion("r", 1 << 30)  # 1 GiB logical
        region.write(12345678, b"x")
        assert len(region._pages) == 1

    def test_bounds_checked(self):
        region = MemoryRegion("r", 64)
        with pytest.raises(RdmaProtectionError):
            region.read(60, 8)
        with pytest.raises(RdmaProtectionError):
            region.write(-1, b"x")
        with pytest.raises(RdmaProtectionError):
            region.read(0, 65)

    def test_word_roundtrip(self):
        region = MemoryRegion("r", 64)
        region.write_word(8, 0xDEADBEEFCAFEBABE)
        assert region.read_word(8) == 0xDEADBEEFCAFEBABE

    def test_misaligned_atomic_rejected(self):
        region = MemoryRegion("r", 64)
        with pytest.raises(RdmaProtectionError):
            region.read_word(3)

    def test_cas_success_swaps_and_returns_old(self):
        region = MemoryRegion("r", 64)
        region.write_word(0, 5)
        assert region.compare_and_swap(0, 5, 9) == 5
        assert region.read_word(0) == 9

    def test_cas_failure_leaves_value_and_returns_current(self):
        region = MemoryRegion("r", 64)
        region.write_word(0, 5)
        assert region.compare_and_swap(0, 4, 9) == 5
        assert region.read_word(0) == 5

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryRegion("r", 0)


def _make_pair(fabric, exclusive=False):
    """One requester and one target exporting a 4 KiB region."""
    target = fabric.add_host("target", cores=1)
    requester = fabric.add_host("requester", cores=2)
    listener = RdmaListener(target)
    region = MemoryRegion("data", 4096)
    listener.export(region, exclusive=exclusive)
    nic = Rnic(requester, fabric)
    qp = QueuePair(nic, listener)
    return requester, target, listener, region, nic, qp


class TestQueuePair:
    def test_connect_then_verbs(self, sim, fabric):
        requester, _target, _listener, region, _nic, qp = _make_pair(fabric)

        def proc():
            yield requester.spawn(qp.connect(["data"]))
            yield qp.write("data", 0, b"abc")
            data = yield qp.read("data", 0, 3)
            return data

        assert sim.run_process(proc()) == b"abc"
        assert region.read(0, 3) == b"abc"

    @pytest.mark.parametrize("dropped", ["requester", "target"])
    def test_connect_with_a_dropped_handshake_fails_at_the_verb_timeout(
        self, sim, fabric, dropped
    ):
        """A lost handshake request or answer used to park the connecting
        process forever; it fails by the NIC's verb timeout instead."""
        requester, _target, _listener, _region, nic, qp = _make_pair(fabric)
        fabric.add_interceptor(
            lambda src, dst, size, stream: Verdict(drop=src == dropped)
        )

        def proc():
            try:
                yield requester.spawn(qp.connect(["data"]))
            except Unreachable as exc:
                return sim.now, str(exc), exc.retryable

        assert sim.run_process(proc()) == (
            nic.timeout_us,
            f"requester <-> target: no answer within {nic.timeout_us}us",
            True,
        )
        assert qp.state is QpState.INIT and qp.granted == ()

    def test_verb_before_connect_fails(self, sim, fabric):
        *_rest, qp = _make_pair(fabric)
        event = qp.read("data", 0, 1)
        assert event.failed and isinstance(event.exception, RdmaError)

    def test_ungranted_region_rejected(self, sim, fabric):
        requester, *_rest, qp = _make_pair(fabric)

        def proc():
            yield requester.spawn(qp.connect(["data"]))
            try:
                yield qp.read("nope", 0, 1)
            except RdmaError:
                return "denied"

        assert sim.run_process(proc()) == "denied"

    def test_cas_verb(self, sim, fabric):
        requester, _target, _listener, region, _nic, qp = _make_pair(fabric)
        region.write_word(0, 7)

        def proc():
            yield requester.spawn(qp.connect(["data"]))
            old = yield qp.cas("data", 0, 7, 11)
            old2 = yield qp.cas("data", 0, 7, 13)  # stale expected: no swap
            return old, old2

        assert sim.run_process(proc()) == (7, 11)
        assert region.read_word(0) == 11

    def test_read_word_verb(self, sim, fabric):
        requester, _target, _listener, region, _nic, qp = _make_pair(fabric)
        region.write_word(8, 1234)

        def proc():
            yield requester.spawn(qp.connect(["data"]))
            value = yield qp.read_word("data", 8)
            return value

        assert sim.run_process(proc()) == 1234

    def test_verb_against_dead_target_times_out(self, sim, fabric):
        requester, target, _listener, _region, _nic, qp = _make_pair(fabric)

        def proc():
            yield requester.spawn(qp.connect(["data"]))
            target.crash()
            try:
                yield qp.read("data", 0, 1)
            except RdmaTimeout:
                return sim.now

        elapsed = sim.run_process(proc())
        assert elapsed >= 1000.0  # the default retry-exhaustion budget

    def test_stale_connection_after_target_restart(self, sim, fabric):
        requester, target, _listener, _region, _nic, qp = _make_pair(fabric)

        def proc():
            yield requester.spawn(qp.connect(["data"]))
            target.crash()
            target.restart()
            try:
                yield qp.read("data", 0, 1)
            except RdmaError:
                return "stale"

        assert sim.run_process(proc()) == "stale"

    def test_protection_fault_on_out_of_bounds(self, sim, fabric):
        requester, *_rest, qp = _make_pair(fabric)

        def proc():
            yield requester.spawn(qp.connect(["data"]))
            try:
                yield qp.read("data", 4090, 100)
            except RdmaProtectionError:
                return "fault"

        assert sim.run_process(proc()) == "fault"

    def test_close_detaches(self, sim, fabric):
        requester, *_rest, qp = _make_pair(fabric)

        def proc():
            yield requester.spawn(qp.connect(["data"]))
            qp.close()
            try:
                yield qp.read("data", 0, 1)
            except RdmaError:
                return qp.state

        assert sim.run_process(proc()) == QpState.CLOSED

    def test_rc_in_order_delivery(self, sim, fabric):
        """Writes posted back-to-back must apply in post order."""
        requester, _target, _listener, region, _nic, qp = _make_pair(fabric)

        def proc():
            yield requester.spawn(qp.connect(["data"]))
            last = None
            for value in range(50):
                last = qp.write("data", 0, value.to_bytes(4, "little"))
            yield last
            return region.read(0, 4)

        assert sim.run_process(proc()) == (49).to_bytes(4, "little")

    def test_dead_target_times_out_only_its_own_verb(self, sim, fabric):
        """The replication fan-out shape: one write per target, each on
        its own queue pair.  A crashed target fails its own write with
        ``RdmaTimeout``; the writes to the live targets complete."""
        requester = fabric.add_host("requester", cores=2)
        nic = Rnic(requester, fabric)
        qps, regions = [], []
        for i in range(3):
            listener = RdmaListener(fabric.add_host(f"target{i}", cores=1))
            regions.append(MemoryRegion("data", 4096))
            listener.export(regions[-1])
            qps.append(QueuePair(nic, listener))

        def proc():
            for qp in qps:
                yield requester.spawn(qp.connect(["data"]))
            qps[1].target.crash()
            return [qp.write("data", 0, b"payload") for qp in qps]

        writes = sim.run_process(proc())
        sim.run()
        assert writes[0].ok and writes[2].ok
        assert isinstance(writes[1].exception, RdmaTimeout)
        assert regions[0].read(0, 7) == regions[2].read(0, 7) == b"payload"

    def test_per_target_order_preserved(self, sim, fabric):
        """RC ordering across a fan-out: writes interleaved over several
        queue pairs apply in post order on each target (last write wins
        on the overlapping slot)."""
        requester = fabric.add_host("requester", cores=2)
        nic = Rnic(requester, fabric)
        qps, regions = [], []
        for i in range(3):
            listener = RdmaListener(fabric.add_host(f"target{i}", cores=1))
            regions.append(MemoryRegion("data", 4096))
            listener.export(regions[-1])
            qps.append(QueuePair(nic, listener))

        def proc():
            for qp in qps:
                yield requester.spawn(qp.connect(["data"]))
            writes = [qp.write("data", 0, b"first") for qp in qps]
            writes += [qp.write("data", 0, b"SECOND") for qp in qps]
            for write in writes:
                yield write

        sim.run_process(proc())
        assert [region.read(0, 6) for region in regions] == [b"SECOND"] * 3


class TestConnectFanOut:
    """Spawn one connect per target, then join them in turn (the shape
    of ``ReplicatedMemory.connect`` and ``CpuNode._ensure_admin_qps``)."""

    def _fan_out(self, sim, fabric, start):
        requester, _target, _listener, _region, nic, first = _make_pair(fabric)
        cut_off = fabric.add_host("cut-off", cores=1)
        listener = RdmaListener(cut_off)
        listener.export(MemoryRegion("data", 4096))
        fabric.block("requester", "cut-off")
        second = QueuePair(nic, listener)

        def parent():
            children = [
                start(requester)(qp.connect(["data"])) for qp in (first, second)
            ]
            connected = []
            for qp, child in zip((first, second), children):
                try:
                    yield child
                except Exception:
                    continue
                connected.append(qp)
            return connected

        return first, sim.run_process(parent())

    def test_second_child_failing_first_is_delivered_at_its_join(self, sim, fabric):
        """The connect behind the partition fails at once, while the
        first is still in flight and the parent is joined on that one."""
        first, connected = self._fan_out(sim, fabric, lambda host: host.fork)
        assert connected == [first] and first.state is QpState.CONNECTED

    def test_a_plain_spawn_has_no_waiter_yet(self, sim, fabric):
        with pytest.raises(SimulationError, match="unhandled exception"):
            self._fan_out(sim, fabric, lambda host: host.spawn)


class TestExclusiveRegions:
    def test_new_connection_revokes_previous(self, sim, fabric):
        target = fabric.add_host("t", cores=1)
        a = fabric.add_host("a", cores=1)
        b = fabric.add_host("b", cores=1)
        listener = RdmaListener(target)
        region = MemoryRegion("x", 1024)
        listener.export(region, exclusive=True)
        qp_a = QueuePair(Rnic(a, fabric), listener, name="qa")
        qp_b = QueuePair(Rnic(b, fabric), listener, name="qb")

        def proc():
            yield a.spawn(qp_a.connect(["x"]))
            yield qp_a.write("x", 0, b"from-a")
            yield b.spawn(qp_b.connect(["x"]))
            # The old holder's verbs now fail with a revocation error.
            try:
                yield qp_a.write("x", 0, b"stale")
            except RdmaConnectionRevoked:
                pass
            else:
                pytest.fail("stale write was accepted")
            yield qp_b.write("x", 0, b"from-b")
            return region.read(0, 6)

        assert sim.run_process(proc()) == b"from-b"
        assert qp_a.state is QpState.REVOKED

    def test_shared_region_allows_many_connections(self, sim, fabric):
        target = fabric.add_host("t", cores=1)
        hosts = [fabric.add_host(f"h{i}", cores=1) for i in range(3)]
        listener = RdmaListener(target)
        region = MemoryRegion("s", 1024)
        listener.export(region, exclusive=False)
        qps = [QueuePair(Rnic(h, fabric), listener) for h in hosts]

        def proc():
            for host, qp in zip(hosts, qps):
                yield host.spawn(qp.connect(["s"]))
            for index, qp in enumerate(qps):
                yield qp.write("s", index * 8, bytes([index]) * 8)
            return [region.read(i * 8, 8) for i in range(3)]

        results = sim.run_process(proc())
        assert results == [bytes([0]) * 8, bytes([1]) * 8, bytes([2]) * 8]

    def test_delayed_write_from_old_coordinator_dropped(self, sim, fabric):
        """§3.2: messages delayed across a takeover must not apply."""
        target = fabric.add_host("t", cores=1)
        a = fabric.add_host("a", cores=1)
        b = fabric.add_host("b", cores=1)
        listener = RdmaListener(target)
        region = MemoryRegion("x", 1024)
        listener.export(region, exclusive=True)
        qp_a = QueuePair(Rnic(a, fabric), listener)
        qp_b = QueuePair(Rnic(b, fabric), listener)
        outcome = {}

        def old_coordinator():
            yield a.spawn(qp_a.connect(["x"]))
            outcome["connected"] = sim.now
            # Issue a write that will be in flight while B takes over.
            event = qp_a.write("x", 0, b"stale-data")
            try:
                yield event
            except RdmaConnectionRevoked:
                outcome["old"] = "revoked"

        def new_coordinator():
            yield sim.timeout(1.0)  # let A connect and post first
            yield b.spawn(qp_b.connect(["x"]))
            yield qp_b.write("x", 0, b"fresh-data")

        sim.spawn(old_coordinator())
        sim.spawn(new_coordinator())
        sim.run()
        # Whatever the interleaving, the final bytes are never stale if B
        # wrote after its connection (revocation fences A).
        final = region.read(0, 10)
        assert final in (b"fresh-data", b"stale-data")
        if final == b"stale-data":
            # Only allowed if A's write landed before B connected.
            assert "old" not in outcome


class TestMessenger:
    def test_send_recv_roundtrip(self, sim, fabric):
        a = fabric.add_host("a", cores=1)
        b = fabric.add_host("b", cores=1)
        ma = RdmaMessenger(a, Rnic(a, fabric))
        mb = RdmaMessenger(b, Rnic(b, fabric))

        def receiver():
            message = yield mb.recv()
            return message

        process = b.spawn(receiver())
        ma.send(mb, {"hello": 1}, 64)
        sim.run()
        assert process.value == {"hello": 1}

    def test_fifo_order(self, sim, fabric):
        a = fabric.add_host("a", cores=1)
        b = fabric.add_host("b", cores=1)
        ma = RdmaMessenger(a, Rnic(a, fabric))
        mb = RdmaMessenger(b, Rnic(b, fabric))
        for index in range(20):
            ma.send(mb, index, 64)

        def receiver():
            got = []
            for _ in range(20):
                got.append((yield mb.recv()))
            return got

        process = b.spawn(receiver())
        sim.run()
        assert process.value == list(range(20))

    def test_messages_queue_until_recv(self, sim, fabric):
        a = fabric.add_host("a", cores=1)
        b = fabric.add_host("b", cores=1)
        ma = RdmaMessenger(a, Rnic(a, fabric))
        mb = RdmaMessenger(b, Rnic(b, fabric))
        ma.send(mb, "early", 64)
        sim.run()
        assert len(mb) == 1

    def test_crash_drops_queue(self, sim, fabric):
        a = fabric.add_host("a", cores=1)
        b = fabric.add_host("b", cores=1)
        ma = RdmaMessenger(a, Rnic(a, fabric))
        mb = RdmaMessenger(b, Rnic(b, fabric))
        ma.send(mb, "x", 64)
        sim.run()
        b.crash()
        assert len(mb) == 0

    def test_send_to_dead_host_is_silent(self, sim, fabric):
        a = fabric.add_host("a", cores=1)
        b = fabric.add_host("b", cores=1)
        ma = RdmaMessenger(a, Rnic(a, fabric))
        mb = RdmaMessenger(b, Rnic(b, fabric))
        b.crash()
        ma.send(mb, "x", 64)
        sim.run()  # no exception
        assert len(mb) == 0
