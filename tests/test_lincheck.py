"""Tests for the linearizability checker, plus a nemesis-style
end-to-end consistency check of the Sift KV store under failover."""


from repro.bench.lincheck import (
    DELETE,
    GET,
    PUT,
    History,
    Op,
    RecordingClient,
    check_history,
    check_key_history,
)
from repro.core import SiftGroup
from repro.kv import KvClient, KvConfig, kv_app_factory
from repro.kv.client import KvRequestFailed
from tests.testing import make_sim
from repro.net import Fabric
from repro.sim import MS, SEC, Simulator


def op(kind, value, t0, t1, key=b"k"):
    return Op(key, kind, value, t0, t1)


class TestChecker:
    def test_simple_sequential_history(self):
        ops = [
            op(PUT, b"a", 0, 1),
            op(GET, b"a", 2, 3),
            op(PUT, b"b", 4, 5),
            op(GET, b"b", 6, 7),
        ]
        assert check_key_history(ops)

    def test_stale_read_rejected(self):
        ops = [
            op(PUT, b"a", 0, 1),
            op(PUT, b"b", 2, 3),
            op(GET, b"a", 4, 5),  # must see b
        ]
        assert not check_key_history(ops)

    def test_concurrent_put_get_either_order(self):
        ops = [
            op(PUT, b"new", 0, 10),
            op(GET, None, 1, 2),  # overlaps the put: may see the old value
        ]
        assert check_key_history(ops)
        ops2 = [
            op(PUT, b"new", 0, 10),
            op(GET, b"new", 1, 2),  # or the new one
        ]
        assert check_key_history(ops2)

    def test_read_of_never_written_value_rejected(self):
        assert not check_key_history([op(GET, b"ghost", 0, 1)])

    def test_initial_value(self):
        assert check_key_history([op(GET, b"seed", 0, 1)], initial=b"seed")

    def test_delete_semantics(self):
        ops = [
            op(PUT, b"x", 0, 1),
            op(DELETE, None, 2, 3),
            op(GET, None, 4, 5),
        ]
        assert check_key_history(ops)
        bad = [
            op(PUT, b"x", 0, 1),
            op(DELETE, None, 2, 3),
            op(GET, b"x", 4, 5),  # resurrected value
        ]
        assert not check_key_history(bad)

    def test_unacked_put_may_or_may_not_apply(self):
        pending_applied = [
            op(PUT, b"v1", 0, 1),
            op(PUT, b"v2", 2, None),  # no response observed
            op(GET, b"v2", 10, 11),
        ]
        assert check_key_history(pending_applied)
        pending_dropped = [
            op(PUT, b"v1", 0, 1),
            op(PUT, b"v2", 2, None),
            op(GET, b"v1", 10, 11),
        ]
        assert check_key_history(pending_dropped)

    def test_flip_flop_rejected(self):
        """A value cannot be observed, disappear, then reappear without
        an intervening write."""
        ops = [
            op(PUT, b"a", 0, 1),
            op(PUT, b"b", 2, 3),
            op(GET, b"b", 4, 5),
            op(GET, b"a", 6, 7),
            op(GET, b"b", 8, 9),
        ]
        assert not check_key_history(ops)

    def test_keys_checked_independently(self):
        history = History()
        history.record(op(PUT, b"1", 0, 1, key=b"a"))
        history.record(op(PUT, b"2", 0, 1, key=b"b"))
        history.record(op(GET, b"1", 2, 3, key=b"a"))
        history.record(op(GET, b"2", 2, 3, key=b"b"))
        ok, offender = check_history(history)
        assert ok and offender is None

    def test_offending_key_reported(self):
        history = History()
        history.record(op(PUT, b"1", 0, 1, key=b"a"))
        history.record(op(GET, b"zzz", 2, 3, key=b"b"))
        ok, offender = check_history(history)
        assert not ok and offender == b"b"


class _FlakyStore:
    """A client whose calls fail while ``down``; ``put`` acks by returning."""

    def __init__(self, host):
        self.host = host
        self.values = {}
        self.down = False

    def _call(self, effect):
        yield self.host.sim.timeout(10.0)
        if self.down:
            raise KvRequestFailed("no coordinator answered")
        return effect()

    def put(self, key, value):
        return self._call(lambda: self.values.__setitem__(key, value))

    def get(self, key):
        return self._call(lambda: self.values.get(key))


class TestRecordingClient:
    def test_records_each_call_and_a_failure_as_never_responded(self):
        sim, fabric = make_sim()
        store = _FlakyStore(fabric.add_host("c"))
        client = RecordingClient(store)

        def scenario():
            yield from client.put(b"k", b"v1")
            assert (yield from client.get(b"k")) == b"v1"
            store.down = True
            yield from client.put(b"k", b"v2")
            assert (yield from client.get(b"k")) is None
            store.down = False
            return (yield from client.read_back())

        assert sim.run_process(scenario()) == []
        assert client.history.ops == [
            Op(b"k", PUT, b"v1", 0.0, 10.0),
            Op(b"k", GET, b"v1", 10.0, 20.0),
            Op(b"k", PUT, b"v2", 20.0, None),
            Op(b"k", GET, None, 30.0, None),
            Op(b"k", GET, b"v1", 40.0, 50.0),  # the read-back is history too
        ]
        assert client.acked == {b"k": b"v1"}
        assert (client.acked_puts, client.failures) == (1, 2)
        assert check_history(client.history) == (True, None)

    def test_read_back_names_lost_keys_and_can_use_a_patient_client(self):
        sim, fabric = make_sim()
        host = fabric.add_host("c")
        store, patient = _FlakyStore(host), _FlakyStore(host)
        shared = History()
        client = RecordingClient(store, shared)

        def scenario():
            yield from client.put(b"a", b"1")
            yield from client.put(b"b", b"2")
            patient.values = {b"a": b"1"}  # b's acked write is gone
            store.down = True  # only the patient client gets through
            yield sim.timeout(1.0)  # strictly after the acks
            return (yield from client.read_back([b"b", b"a", b"c"], patient))

        assert sim.run_process(scenario()) == [b"b"]
        assert client.history is shared and len(shared.ops) == 5
        assert check_history(shared) == (False, b"b")


class TestNemesis:
    def test_kv_history_linearizable_across_coordinator_crash(self):
        """Concurrent clients + a coordinator crash: the full observed
        history must stay (per-key) linearizable."""
        sim = Simulator()
        fabric = Fabric(sim)
        kv_config = KvConfig(max_keys=128, wal_entries=64)
        group = SiftGroup(
            fabric,
            kv_config.sift_config(fm=1, fc=1, wal_entries=64),
            name="nemesis",
            app_factory=kv_app_factory(kv_config),
        )
        group.start()
        history = History()

        def client_loop(tag):
            host = fabric.add_host(f"nc{tag}", cores=2)
            client = RecordingClient(KvClient(host, fabric, group), history)
            rng = fabric.rng.stream(f"nemesis:{tag}")
            for round_number in range(25):
                key = b"key-%d" % rng.randrange(4)
                if rng.random() < 0.5:
                    yield from client.put(key, b"%d:%d" % (tag, round_number))
                else:
                    yield from client.get(key)

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            workers = [sim.spawn(client_loop(tag)) for tag in range(4)]
            yield sim.timeout(15 * MS)
            group.crash_coordinator()
            for worker in workers:
                yield worker
            return True

        process = sim.spawn(scenario())
        sim.run_until_settled(process, deadline=120 * SEC)
        assert process.settled and process.ok, getattr(process, "exception", None)
        ok, offender = check_history(history)
        assert ok, f"history not linearizable for key {offender!r}"
        assert len(history.ops) > 50  # the run actually exercised traffic
