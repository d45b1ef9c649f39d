"""KV store tests (§4): data path, chains, recovery, and a model-based
property test against a plain dict."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SiftGroup
from repro.kv import KvClient, KvConfig, kv_app_factory
from repro.net import Fabric
from repro.sim import MS, SEC, Simulator


def make_stack(ec=False, kv_overrides=None, sift_overrides=None):
    sim = Simulator()
    fabric = Fabric(sim)
    kv_kwargs = dict(max_keys=512, wal_entries=128, watermark_interval=32)
    kv_kwargs.update(kv_overrides or {})
    kv_config = KvConfig(**kv_kwargs)
    sift_kwargs = dict(fm=1, fc=1, erasure_coding=ec, wal_entries=256)
    sift_kwargs.update(sift_overrides or {})
    sift_config = kv_config.sift_config(**sift_kwargs)
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


class TestDataPath:
    def test_put_get(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"v")
            return (yield from client.get(b"k"))

        assert run(sim, scenario()) == b"v"

    def test_get_missing_returns_none(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            return (yield from client.get(b"nothing"))

        assert run(sim, scenario()) is None

    def test_overwrite(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"v1")
            yield from client.put(b"k", b"v2")
            return (yield from client.get(b"k"))

        assert run(sim, scenario()) == b"v2"

    def test_put_get_roundtrip(self):
        """Several keys written back-to-back, one of them overwritten,
        each read back with its own last value."""
        sim, _f, group, client = make_stack()
        expected = {b"k%d" % i: b"v%d" % i for i in range(4)}
        expected[b"k2"] = b"v2-again"

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            for i in range(4):
                yield from client.put(b"k%d" % i, b"v%d" % i)
            yield from client.put(b"k2", b"v2-again")
            got = {}
            for key in expected:
                got[key] = yield from client.get(key)
            return got

        assert run(sim, scenario()) == expected

    def test_delete(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"v")
            yield from client.delete(b"k")
            return (yield from client.get(b"k"))

        assert run(sim, scenario()) is None

    def test_delete_missing_is_idempotent(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from client.delete(b"ghost")
            yield from client.delete(b"ghost")
            return True

        assert run(sim, scenario())

    def test_empty_value(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"")
            return (yield from client.get(b"k"))

        assert run(sim, scenario()) == b""

    def test_max_sized_record(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            key = b"K" * 32
            value = b"V" * 992
            yield from client.put(key, value)
            return (yield from client.get(key))

        assert run(sim, scenario()) == b"V" * 992

    def test_oversized_key_rejected(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            try:
                yield from client.put(b"K" * 33, b"v")
            except Exception:
                return "rejected"
            return "accepted"

        assert run(sim, scenario()) == "rejected"

    def test_many_keys(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(200):
                yield from client.put(b"key-%03d" % index, b"val-%03d" % index)
            for index in (0, 57, 123, 199):
                value = yield from client.get(b"key-%03d" % index)
                assert value == b"val-%03d" % index, index
            return True

        assert run(sim, scenario())

    def test_get_after_applies_drain(self):
        """Values remain correct after the WAL has been fully applied."""
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"final")
            server = group.serving_coordinator().app
            while server.applied_seq < server.next_seq - 1:
                yield sim.timeout(1 * MS)
            # Evict nothing; read via chain by clearing the cache entry.
            server.cache._entries.clear()
            return (yield from client.get(b"k"))

        assert run(sim, scenario()) == b"final"

    def test_concurrent_puts_all_land(self):
        """Writers racing on one coordinator each get their own WAL slot:
        every acked put is readable afterwards."""
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

        assert run(sim, scenario()) == [b"v%d" % i for _c in range(6) for i in range(8)]
        assert group.serving_coordinator().app.stats["puts"] == 48

    def test_concurrent_burst_is_deterministic(self):
        """Same seed, same schedule: a burst of racing puts leaks no host
        nondeterminism into simulated time or the store's stats."""

        def observe():
            sim, fabric, group, _client = make_stack()

            def scenario():
                yield from group.wait_until_serving(timeout_us=2 * SEC)
                for proc in _burst(fabric, group, n_clients=5, puts_each=10):
                    yield proc

            run(sim, scenario())
            return sim.now, dict(group.serving_coordinator().app.stats)

        assert observe() == observe()


def _burst(fabric, group, n_clients, puts_each):
    """Spawn *n_clients* concurrent writers; returns their processes."""
    procs = []
    for c in range(n_clients):
        client = KvClient(fabric.add_host(f"w{c}", cores=2), fabric, group)

        def writer(client=client, c=c):
            for i in range(puts_each):
                yield from client.put(b"k%d-%d" % (c, i), b"v%d" % i)

        procs.append(fabric.sim.spawn(writer(), name=f"writer{c}"))
    return procs


class TestChains:
    def test_colliding_keys_chain_correctly(self):
        """Force many keys into one bucket and verify chain traversal."""
        sim, _f, group, client = make_stack(kv_overrides=dict(max_keys=64))

        def scenario():
            coordinator = yield from group.wait_until_serving(timeout_us=2 * SEC)
            server = coordinator.app
            layout = server.layout
            # Find keys that collide in one bucket.
            target = layout.bucket_of(b"seed")
            colliding = [b"seed"]
            probe = 0
            while len(colliding) < 5:
                key = b"probe-%d" % probe
                if layout.bucket_of(key) == target:
                    colliding.append(key)
                probe += 1
            for index, key in enumerate(colliding):
                yield from client.put(key, b"value-%d" % index)
            server.cache._entries.clear()  # force chain walks
            values = []
            for key in colliding:
                values.append((yield from client.get(key)))
            return values

        values = run(sim, scenario())
        assert values == [b"value-%d" % index for index in range(5)]

    def test_delete_middle_of_chain(self):
        sim, _f, group, client = make_stack(kv_overrides=dict(max_keys=64))

        def scenario():
            coordinator = yield from group.wait_until_serving(timeout_us=2 * SEC)
            server = coordinator.app
            layout = server.layout
            target = layout.bucket_of(b"anchor")
            colliding = [b"anchor"]
            probe = 0
            while len(colliding) < 4:
                key = b"p-%d" % probe
                if layout.bucket_of(key) == target:
                    colliding.append(key)
                probe += 1
            for key in colliding:
                yield from client.put(key, b"v:" + key)
            yield from client.delete(colliding[2])
            server.cache._entries.clear()
            values = []
            for key in colliding:
                values.append((yield from client.get(key)))
            return values

        values = run(sim, scenario())
        assert values[2] is None
        assert values[0] == b"v:anchor"
        assert values[1] is not None and values[3] is not None

    def test_block_reuse_after_delete(self):
        sim, _f, group, client = make_stack(kv_overrides=dict(max_keys=64))

        def scenario():
            coordinator = yield from group.wait_until_serving(timeout_us=2 * SEC)
            server = coordinator.app
            for index in range(60):
                yield from client.put(b"fill-%02d" % index, b"x")
            while server.applied_seq < server.next_seq - 1:
                yield sim.timeout(1 * MS)
            free_before = server._free_blocks
            for index in range(30):
                yield from client.delete(b"fill-%02d" % index)
            while server.applied_seq < server.next_seq - 1:
                yield sim.timeout(1 * MS)
            assert server._free_blocks == free_before + 30
            # The freed blocks are usable again.
            for index in range(25):
                yield from client.put(b"new-%02d" % index, b"y")
            return (yield from client.get(b"new-03"))

        assert run(sim, scenario()) == b"y"

    def test_store_full(self):
        sim, _f, group, client = make_stack(kv_overrides=dict(max_keys=8))

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            outcomes = []
            for index in range(12):
                try:
                    yield from client.put(b"k%02d" % index, b"v")
                    outcomes.append("ok")
                except Exception:
                    outcomes.append("full")
            return outcomes

        outcomes = run(sim, scenario())
        assert "full" in outcomes
        assert outcomes[:8].count("ok") == 8


class TestRecovery:
    def test_failover_preserves_all_operations(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(50):
                yield from client.put(b"k%02d" % index, b"v%02d" % index)
            yield from client.delete(b"k10")
            yield from client.put(b"k11", b"updated")
            group.crash_coordinator()
            values = []
            for key, expect in ((b"k09", b"v09"), (b"k10", None), (b"k11", b"updated")):
                values.append((yield from client.get(key)))
            return values

        assert run(sim, scenario()) == [b"v09", None, b"updated"]

    def test_watermark_bounds_replay(self):
        sim, _f, group, client = make_stack(kv_overrides=dict(watermark_interval=8))

        def scenario():
            coordinator = yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(40):
                yield from client.put(b"k%02d" % index, b"v")
            server = coordinator.app
            while server.applied_seq < server.next_seq - 1:
                yield sim.timeout(1 * MS)
            yield sim.timeout(5 * MS)
            coordinator.crash()
            successor = yield from group.wait_until_serving(timeout_us=5 * SEC)
            return successor.app.stats["replayed"]

        replayed = run(sim, scenario())
        # With the watermark persisted every 8 applies, replay is a small
        # suffix, never the whole history.
        assert replayed <= 24

    def test_kv_process_restart_without_coordinator_change(self):
        """§4.3: the KV layer recovers independently of the consensus layer."""
        sim, _f, group, client = make_stack()

        def scenario():
            coordinator = yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(30):
                yield from client.put(b"k%02d" % index, b"v%02d" % index)
            old_server = coordinator.app
            old_server.stop()
            # A fresh KV process on the same coordinator recovers from
            # replicated memory alone.
            from repro.kv.store import KvServer

            new_server = KvServer(
                coordinator, coordinator.repmem, old_server.config, old_server.endpoint
            )
            coordinator.app = new_server
            yield coordinator.host.spawn(new_server.start())
            return (yield from client.get(b"k17"))

        assert run(sim, scenario()) == b"v17"

    def test_ec_mode_full_stack(self):
        sim, _f, group, client = make_stack(ec=True)

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(30):
                yield from client.put(b"e%02d" % index, b"val-%02d" % index * 8)
            group.crash_coordinator()
            value = yield from client.get(b"e15")
            return value

        assert run(sim, scenario()) == b"val-15" * 8


class TestModelBased:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.integers(0, 15),
                st.binary(min_size=1, max_size=32),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_matches_dict_semantics(self, ops):
        """The replicated store behaves exactly like a dict."""
        sim, _f, group, client = make_stack()
        model = {}

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            for op, key_id, value in ops:
                key = b"key-%02d" % key_id
                if op == "put":
                    yield from client.put(key, value)
                    model[key] = value
                elif op == "delete":
                    yield from client.delete(key)
                    model.pop(key, None)
                else:
                    got = yield from client.get(key)
                    assert got == model.get(key), (op, key, got, model.get(key))
            # Final read-back of every key ever touched.
            for key_id in range(16):
                key = b"key-%02d" % key_id
                got = yield from client.get(key)
                assert got == model.get(key), (key, got, model.get(key))
            return True

        assert run(sim, scenario())
