"""WAL-append coalescing (§4 amortization on the hot path).

With ``KvConfig.coalesce_appends`` on, concurrent puts hand their
encoded WAL images to a flusher that merges contiguous-sequence runs
into one replicated extent write.  The contract: observable KV state
and error semantics are exactly those of the per-record path — only
the number of replicated writes (and hence simulated commit timing)
changes.
"""

from repro.core import SiftGroup
from repro.kv import KvClient, KvConfig, kv_app_factory
from repro.kv.layout import OP_PUT, WalRecord
from repro.net import Fabric
from repro.sim import SEC, Event, Simulator


def make_stack(coalesce=True, seed=1, **kv_extra):
    sim = Simulator()
    fabric = Fabric(sim)
    kv_kwargs = dict(
        max_keys=512,
        wal_entries=128,
        watermark_interval=32,
        coalesce_appends=coalesce,
    )
    kv_kwargs.update(kv_extra)
    kv_config = KvConfig(**kv_kwargs)
    sift_config = kv_config.sift_config(fm=1, fc=1, wal_entries=256)
    group = SiftGroup(fabric, sift_config, name="kv", app_factory=kv_app_factory(kv_config))
    group.start()
    client = KvClient(fabric.add_host("client", cores=4), fabric, group)
    return sim, fabric, group, client


def run(sim, gen, until=60 * SEC):
    process = sim.spawn(gen)
    sim.run_until_settled(process, deadline=until)
    assert process.settled, "scenario did not finish"
    if process.failed:
        raise process.exception
    return process.value


def _burst(fabric, group, n_clients, puts_each):
    """Spawn *n_clients* concurrent writers; returns their processes."""
    sim = fabric.sim
    procs = []
    for c in range(n_clients):
        client = KvClient(fabric.add_host(f"w{c}", cores=2), fabric, group)

        def writer(client=client, c=c):
            for i in range(puts_each):
                yield from client.put(b"k%d-%d" % (c, i), b"v%d" % i)

        procs.append(sim.spawn(writer(), name=f"writer{c}"))
    return procs


class TestCoalescedDataPath:
    def test_put_get_roundtrip(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"v")
            yield from client.put(b"k", b"v2")
            return (yield from client.get(b"k"))

        assert run(sim, scenario()) == b"v2"

    def test_concurrent_burst_coalesces_and_stays_correct(self):
        """Under write pressure batches actually form, and every put
        remains readable afterwards."""
        sim, fabric, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            for proc in _burst(fabric, group, n_clients=6, puts_each=8):
                yield proc
            values = []
            for c in range(6):
                for i in range(8):
                    values.append((yield from client.get(b"k%d-%d" % (c, i))))
            return values

        values = run(sim, scenario())
        assert values == [b"v%d" % i for _c in range(6) for i in range(8)]
        store = group.serving_coordinator().app
        assert store.stats["puts"] == 48
        assert store.stats["coalesced_appends"] > 0

    def test_same_final_state_as_per_record_path(self):
        """Coalescing may change timings but never what the store ends
        up holding."""

        def final_state(coalesce):
            sim, fabric, group, client = make_stack(coalesce=coalesce)

            def scenario():
                yield from group.wait_until_serving(timeout_us=2 * SEC)
                for proc in _burst(fabric, group, n_clients=4, puts_each=6):
                    yield proc
                state = []
                for c in range(4):
                    for i in range(6):
                        state.append((yield from client.get(b"k%d-%d" % (c, i))))
                return state

            return run(sim, scenario())

        assert final_state(True) == final_state(False)

    def test_deterministic_across_runs(self):
        """Same seed, same schedule: the coalesced path must not leak
        host nondeterminism into simulated time or stats."""

        def observe():
            sim, fabric, group, _client = make_stack()

            def scenario():
                yield from group.wait_until_serving(timeout_us=2 * SEC)
                for proc in _burst(fabric, group, n_clients=5, puts_each=10):
                    yield proc

            run(sim, scenario())
            store = group.serving_coordinator().app
            return sim.now, dict(store.stats)

        assert observe() == observe()

    def test_off_by_default(self):
        assert KvConfig().coalesce_appends is False
        sim, _f, group, client = make_stack(coalesce=False)

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"v")

        run(sim, scenario())
        store = group.serving_coordinator().app
        assert store.stats["coalesced_appends"] == 0


class TestFlusherExtents:
    """White-box: drive the flusher directly with forged queues."""

    def _serving_store(self, make=make_stack):
        sim, _f, group, _client = make()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)

        run(sim, scenario())
        return sim, group.serving_coordinator().app

    def _enqueue(self, store, seqs):
        dones = []
        for seq in seqs:
            record = WalRecord(seq, OP_PUT, b"key%d" % seq, b"val", store.repmem.term)
            image = store.layout.encode_wal_record(record)
            done = Event(store.sim)
            store._pending_appends.append((record, image, done))
            dones.append(done)
        store._append_flusher_busy = True
        store.host.spawn(store._append_flusher(), name="test-flusher")
        return dones

    def _drain(self, sim, dones):
        def scenario():
            for done in dones:
                try:
                    yield done
                except Exception:
                    pass

        run(sim, scenario())

    def test_contiguous_run_is_one_extent(self):
        sim, store = self._serving_store()
        dones = self._enqueue(store, [50, 51, 52, 53])
        self._drain(sim, dones)
        assert all(done.ok for done in dones)
        assert store.stats["coalesced_appends"] == 3

    def test_gap_splits_extents(self):
        sim, store = self._serving_store()
        dones = self._enqueue(store, [50, 51, 60, 61])
        self._drain(sim, dones)
        assert all(done.ok for done in dones)
        assert store.stats["coalesced_appends"] == 2  # (2-1) + (2-1)

    def test_ring_wrap_splits_extents(self):
        """wal_entries=128: seq 129 lands back on slot 0, so a run
        crossing the wrap must become two extent writes — one straight
        line per address range."""
        sim, store = self._serving_store()
        assert store.config.wal_entries == 128
        dones = self._enqueue(store, [127, 128, 129, 130])
        self._drain(sim, dones)
        assert all(done.ok for done in dones)
        assert store.stats["coalesced_appends"] == 2  # [127,128] + [129,130]
        assert store.layout.wal_slot_addr(129) < store.layout.wal_slot_addr(128)

    def test_batches_bounded_by_coalesce_max(self):
        sim, store = self._serving_store(
            lambda: make_stack(coalesce_max=4))
        dones = self._enqueue(store, list(range(40, 46)))  # 6 contiguous
        self._drain(sim, dones)
        assert all(done.ok for done in dones)
        # First flush takes 4 (one extent), second takes the trailing 2.
        assert store.stats["coalesced_appends"] == 3 + 1

    def test_failed_extent_fails_only_its_records(self):
        sim, store = self._serving_store()
        fail_addr = store.layout.wal_slot_addr(50)
        original = store.repmem.direct_write

        def flaky(addr, data):
            if addr == fail_addr:
                raise RuntimeError("injected extent fault")
            return (yield from original(addr, data))

        store.repmem.direct_write = flaky
        dones = self._enqueue(store, [50, 51, 60, 61])
        self._drain(sim, dones)
        assert dones[0].failed and dones[1].failed
        assert isinstance(dones[0].exception, RuntimeError)
        assert dones[2].ok and dones[3].ok

    def test_padding_lands_records_on_slot_boundaries(self):
        """Every record in a merged extent must decode from its own
        slot address afterwards."""
        sim, store = self._serving_store()
        seqs = [70, 71, 72]
        dones = self._enqueue(store, seqs)
        self._drain(sim, dones)
        memnode = next(iter(store.repmem.qps))
        region = store.repmem.qps[memnode].listener.lookup("repmem")
        raw_extent = store.repmem.amap.raw_extent
        for seq in seqs:
            image = region.read(
                raw_extent(store.layout.wal_slot_addr(seq)),
                store.layout.wal_slot_bytes,
            )
            record = store.layout.decode_wal_record(image)
            assert record is not None and record.seq == seq
            assert record.key == b"key%d" % seq
