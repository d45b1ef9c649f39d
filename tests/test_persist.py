"""Tests for the persistence layer (§3.5): RocksLite and the sink."""

import os
import struct


from repro.core import SiftGroup
from repro.kv import KvClient, KvConfig, kv_app_factory
from repro.net import Fabric
from repro.persist import PersistenceSink, RocksLite
from repro.sim import MS, SEC, Simulator


class TestRocksLite:
    def test_put_get(self, tmp_path):
        store = RocksLite(str(tmp_path / "db"))
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        store.close()

    def test_delete(self, tmp_path):
        store = RocksLite(str(tmp_path / "db"))
        store.put(b"k", b"v")
        store.delete(b"k")
        assert store.get(b"k") is None
        store.close()

    def test_reopen_recovers_from_wal(self, tmp_path):
        path = str(tmp_path / "db")
        store = RocksLite(path)
        for index in range(100):
            store.put(b"k%d" % index, b"v%d" % index)
        store.delete(b"k50")
        store.close()
        reopened = RocksLite(path)
        assert reopened.get(b"k17") == b"v17"
        assert reopened.get(b"k50") is None
        assert len(reopened) == 99
        reopened.close()

    def test_checkpoint_then_recover(self, tmp_path):
        path = str(tmp_path / "db")
        store = RocksLite(path)
        for index in range(50):
            store.put(b"k%d" % index, b"v%d" % index)
        store.checkpoint()
        store.put(b"after", b"checkpoint")
        store.close()
        reopened = RocksLite(path)
        assert reopened.get(b"k42") == b"v42"
        assert reopened.get(b"after") == b"checkpoint"
        reopened.close()

    def test_checkpoint_truncates_wal(self, tmp_path):
        path = str(tmp_path / "db")
        store = RocksLite(path)
        for index in range(50):
            store.put(b"k%d" % index, b"x" * 100)
        store.checkpoint()
        store.close()
        assert os.path.getsize(os.path.join(path, "wal.log")) == 0

    def test_old_checkpoints_pruned(self, tmp_path):
        path = str(tmp_path / "db")
        store = RocksLite(path)
        store.put(b"a", b"1")
        store.checkpoint()
        store.put(b"b", b"2")
        store.checkpoint()
        store.close()
        snaps = [n for n in os.listdir(path) if n.endswith(".snap")]
        assert len(snaps) == 1

    def test_torn_wal_tail_ignored(self, tmp_path):
        path = str(tmp_path / "db")
        store = RocksLite(path)
        store.put(b"good", b"record")
        store.close()
        with open(os.path.join(path, "wal.log"), "ab") as wal:
            wal.write(struct.pack("<QBII", 99, 1, 4, 4) + b"to")  # truncated
        reopened = RocksLite(path)
        assert reopened.get(b"good") == b"record"
        assert reopened.get(b"torn") is None
        reopened.close()

    def test_corrupt_record_stops_replay(self, tmp_path):
        path = str(tmp_path / "db")
        store = RocksLite(path)
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.close()
        with open(os.path.join(path, "wal.log"), "r+b") as wal:
            wal.seek(10)
            wal.write(b"\xff")  # corrupt the first record
        reopened = RocksLite(path)
        assert reopened.get(b"a") is None  # replay stopped at corruption
        reopened.close()

    def test_sequence_numbers_monotonic_across_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        store = RocksLite(path)
        last = 0
        for index in range(10):
            last = store.put(b"k%d" % index, b"v")
        store.close()
        reopened = RocksLite(path)
        assert reopened.put(b"new", b"v") > last
        reopened.close()

    def test_items_iterates_live_pairs(self, tmp_path):
        store = RocksLite(str(tmp_path / "db"))
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.delete(b"a")
        assert dict(store.items()) == {b"b": b"2"}
        store.close()


class TestPersistenceSink:
    def test_kv_store_with_persistence(self, tmp_path):
        sim = Simulator()
        fabric = Fabric(sim)
        kv_config = KvConfig(max_keys=256, wal_entries=64, watermark_interval=16)
        stores = {}

        def persistence_factory(cpu_node):
            store = RocksLite(str(tmp_path / cpu_node.name))
            stores[cpu_node.name] = store
            return PersistenceSink(cpu_node.host, store, sync_us=10.0)

        group = SiftGroup(
            fabric,
            kv_config.sift_config(fm=1, fc=1, wal_entries=128),
            name="p",
            app_factory=kv_app_factory(kv_config, persistence_factory=persistence_factory),
        )
        group.start()
        client = KvClient(fabric.add_host("client", cores=2), fabric, group)

        def scenario():
            coordinator = yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(100):
                yield from client.put(b"k%02d" % index, b"v%02d" % index)
            yield from client.delete(b"k50")
            sink = coordinator.app.persistence
            while sink.backlog or coordinator.app.applied_seq < coordinator.app.next_seq - 1:
                yield sim.timeout(1 * MS)
            yield sim.timeout(5 * MS)
            return coordinator.name

        process = sim.spawn(scenario())
        sim.run_until_settled(process, deadline=60 * SEC)
        assert process.ok, process.exception
        store = stores[process.value]
        assert store.get(b"k17") == b"v17"
        assert store.get(b"k50") is None
        assert len(store) == 99

    def test_sink_backpressure_bounds_queue(self, tmp_path):
        sim = Simulator()
        fabric = Fabric(sim)
        host = fabric.add_host("h", cores=2)
        store = RocksLite(str(tmp_path / "db"))
        sink = PersistenceSink(host, store, capacity=8, batch_max=4, sync_us=500.0)
        sink.start()

        from repro.kv.layout import OP_PUT, WalRecord

        def producer():
            for seq in range(1, 101):
                yield from sink.offer(WalRecord(seq, OP_PUT, b"k%d" % seq, b"v", 1))
                assert sink.backlog <= 8
            return True

        process = sim.spawn(producer())
        sim.run_until_settled(process, deadline=10 * SEC)
        assert process.ok
        sim.run(until=sim.now + 100 * MS)
        assert sink.persisted == 100
        store.close()
