"""Unit tests for the network substrate: latency, fabric, hosts, RPC."""

import random

import pytest

from repro.net import (
    Fabric,
    FixedLatency,
    HostDown,
    LinearLatency,
    PartitionController,
    RpcClient,
    RpcEndpoint,
    RpcTimeout,
    Unreachable,
)
from repro.net.rpc import Reply
from repro.sim import MS, Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    return Fabric(sim)


class TestLatencyModels:
    def test_fixed_latency_constant(self):
        model = FixedLatency(12.0)
        rng = random.Random(0)
        assert model.sample(rng, 0) == 12.0
        assert model.sample(rng, 10_000) == 12.0
        assert model.mean(5) == 12.0

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_linear_scales_with_size(self):
        model = LinearLatency(base_us=2.0, bytes_per_us=1000.0)
        rng = random.Random(0)
        assert model.sample(rng, 0) == 2.0
        assert model.sample(rng, 1000) == 3.0
        assert model.mean(2000) == 4.0

    def test_linear_jitter_bounded(self):
        model = LinearLatency(base_us=10.0, bytes_per_us=1e9, jitter=0.1)
        rng = random.Random(1)
        samples = [model.sample(rng, 0) for _ in range(2000)]
        assert all(2.0 <= s <= 13.0 for s in samples)  # clipped at 0.2x..1+3sigma
        mean = sum(samples) / len(samples)
        assert 9.5 <= mean <= 10.5

    def test_linear_jitter_clamp_matches_the_min_max_form(self):
        """The two compares against the precomputed cap are the old
        ``max(0.2, min(m, 1 + 3*jitter))``, draw for draw."""
        model = LinearLatency(base_us=10.0, bytes_per_us=1e9, jitter=0.5)
        rng, mirror = random.Random(3), random.Random(3)
        clipped = 0
        for _ in range(2000):
            multiplier = mirror.gauss(1.0, 0.5)
            expected = 10.0 * max(0.2, min(multiplier, 1.0 + 3.0 * 0.5))
            clipped += expected != 10.0 * multiplier
            assert model.sample(rng, 0) == expected
        assert clipped > 20  # both bounds were exercised: 0.2 is 1.6 sigma away

    def test_linear_validation(self):
        with pytest.raises(ValueError):
            LinearLatency(base_us=-1)
        with pytest.raises(ValueError):
            LinearLatency(base_us=1, bytes_per_us=0)
        with pytest.raises(ValueError):
            LinearLatency(base_us=1, jitter=-0.1)


class TestHost:
    def test_execute_charges_cpu(self, sim, fabric):
        host = fabric.add_host("h", cores=1)
        done = []
        host.execute(5.0).add_callback(lambda ev: done.append(sim.now))
        sim.run()
        assert done == [5.0]

    def test_crash_kills_processes(self, sim, fabric):
        host = fabric.add_host("h")
        hits = []

        def loop():
            while True:
                yield sim.timeout(1.0)
                hits.append(sim.now)

        host.spawn(loop())
        sim.run(until=2.5)
        host.crash()
        sim.run(until=10.0)
        assert hits == [1.0, 2.0]
        assert not host.alive

    def test_spawn_on_dead_host_raises(self, sim, fabric):
        host = fabric.add_host("h")
        host.crash()
        with pytest.raises(HostDown):
            host.spawn(iter(()))

    def test_execute_on_dead_host_fails_event(self, sim, fabric):
        host = fabric.add_host("h")
        host.crash()
        event = host.execute(1.0)
        assert event.failed and isinstance(event.exception, HostDown)

    def test_restart_bumps_incarnation(self, sim, fabric):
        host = fabric.add_host("h")
        host.crash()
        host.restart()
        assert host.alive and host.incarnation == 1

    def test_crash_is_idempotent(self, sim, fabric):
        host = fabric.add_host("h")
        host.crash()
        host.crash()
        assert host.incarnation == 0

    def test_duplicate_host_name_rejected(self, fabric):
        fabric.add_host("dup")
        with pytest.raises(ValueError):
            fabric.add_host("dup")


class TestFabricDelivery:
    def test_message_arrives_after_latency(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        got = []
        fabric.deliver(a, b, 0, lambda: got.append(sim.now), latency=FixedLatency(7.0))
        sim.run()
        assert got == [7.0]

    def test_message_to_dead_host_dropped_at_send(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        b.crash()
        assert not fabric.deliver(a, b, 0, lambda: pytest.fail("delivered"))

    def test_message_lost_if_destination_dies_in_flight(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        got = []
        fabric.deliver(a, b, 0, lambda: got.append(1), latency=FixedLatency(10.0))
        sim.schedule(5.0, b.crash)
        sim.run()
        assert got == []

    def test_message_lost_if_destination_restarts_in_flight(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        got = []
        fabric.deliver(a, b, 0, lambda: got.append(1), latency=FixedLatency(10.0))
        sim.schedule(5.0, b.crash)
        sim.schedule(6.0, b.restart)
        sim.run()
        assert got == []  # new incarnation must not receive old traffic

    def test_send_from_dead_host_raises(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        a.crash()
        with pytest.raises(HostDown):
            fabric.deliver(a, b, 0, lambda: None)

    def test_blocked_pair_unreachable(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        fabric.block("a", "b")
        assert not fabric.reachable("a", "b")
        assert not fabric.deliver(a, b, 0, lambda: pytest.fail("delivered"))
        fabric.unblock("a", "b")
        assert fabric.reachable("a", "b")

    def test_isolation_cuts_both_directions(self, fabric):
        fabric.add_host("a")
        fabric.add_host("b")
        fabric.isolate("a")
        assert not fabric.reachable("a", "b")
        assert not fabric.reachable("b", "a")
        fabric.rejoin("a")
        assert fabric.reachable("a", "b")

    def test_partition_formed_in_flight_drops_message(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        got = []
        fabric.deliver(a, b, 0, lambda: got.append(1), latency=FixedLatency(10.0))
        sim.schedule(5.0, fabric.block, "a", "b")
        sim.run()
        assert got == []

    def test_unregistered_host_is_refused(self, sim, fabric):
        """The hot path checks the destination it already holds instead
        of looking it up by name; a host this fabric never registered
        (here: one of another fabric, same name) is still refused."""
        a = fabric.add_host("a")
        fabric.add_host("b")
        stranger = Fabric(sim).add_host("b")
        assert stranger.alive
        assert not fabric.deliver(a, stranger, 0, lambda: pytest.fail("delivered"))
        assert not fabric.can_reach("a", stranger)
        assert not fabric.reachable("a", "nobody")
        assert fabric.reachable("a", "b")
        assert fabric.messages_sent == 0

    def test_given_delay_is_used_and_nothing_is_drawn(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        got = []
        state = fabric.rng.stream("rdma").getstate()
        fabric.deliver(a, b, 64, lambda tag: got.append((tag, sim.now)), "x",
                       stream="rdma", delay=3.25)
        sim.run()
        assert got == [("x", 3.25)]
        assert fabric.rng.stream("rdma").getstate() == state

    def test_round_trip(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")

        def proc():
            yield fabric.round_trip(a, b, 100, 100, latency=FixedLatency(3.0))
            return sim.now

        assert sim.run_process(proc()) == 6.0

    def test_round_trip_fails_fast_when_unreachable(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        fabric.block("a", "b")
        event = fabric.round_trip(a, b, 1, 1)
        assert event.failed and isinstance(event.exception, Unreachable)

    def test_traffic_counters(self, sim, fabric):
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        fabric.deliver(a, b, 500, lambda: None)
        assert fabric.messages_sent == 1
        assert fabric.bytes_sent == 500


class TestPartitionController:
    def test_split_and_heal(self, fabric):
        for name in ("a", "b", "c", "d"):
            fabric.add_host(name)
        controller = PartitionController(fabric)
        controller.split(["a", "b"], ["c", "d"])
        assert not fabric.reachable("a", "c")
        assert not fabric.reachable("b", "d")
        assert fabric.reachable("a", "b")
        controller.heal()
        assert fabric.reachable("a", "c")

    def test_isolate_and_rejoin(self, fabric):
        fabric.add_host("a")
        fabric.add_host("b")
        controller = PartitionController(fabric)
        controller.isolate("a")
        assert not fabric.reachable("b", "a")
        controller.rejoin("a")
        assert fabric.reachable("b", "a")


class TestRpc:
    def _make(self, sim, fabric):
        server = fabric.add_host("server", cores=2)
        client_host = fabric.add_host("client", cores=2)
        endpoint = RpcEndpoint(server, fabric)
        client = RpcClient(client_host, fabric)
        return server, endpoint, client

    def test_plain_function_handler(self, sim, fabric):
        _server, endpoint, client = self._make(sim, fabric)
        endpoint.register("double", lambda x: x * 2)

        def proc():
            value = yield client.call(endpoint, "double", 21)
            return value

        assert sim.run_process(proc()) == 42

    def test_generator_handler_with_cpu(self, sim, fabric):
        server, endpoint, client = self._make(sim, fabric)

        def handler(payload):
            yield server.execute(10.0)
            return Reply(payload + 1, 128)

        endpoint.register("inc", handler)

        def proc():
            value = yield client.call(endpoint, "inc", 1)
            return value, sim.now

        value, elapsed = sim.run_process(proc())
        assert value == 2
        assert elapsed > 30.0  # two network legs + cpu

    def test_handler_exception_propagates_to_client(self, sim, fabric):
        _server, endpoint, client = self._make(sim, fabric)

        def handler(_payload):
            raise ValueError("nope")
            yield  # pragma: no cover

        endpoint.register("bad", handler)

        def proc():
            try:
                yield client.call(endpoint, "bad", None)
            except ValueError:
                return "propagated"

        assert sim.run_process(proc()) == "propagated"

    def test_unknown_method_times_out(self, sim, fabric):
        _server, endpoint, client = self._make(sim, fabric)

        def proc():
            try:
                yield client.call(endpoint, "missing", None, timeout_us=1 * MS)
            except RpcTimeout:
                return "timeout"

        assert sim.run_process(proc()) == "timeout"

    def test_dead_server_unreachable(self, sim, fabric):
        server, endpoint, client = self._make(sim, fabric)
        server.crash()

        def proc():
            try:
                yield client.call(endpoint, "x", None, timeout_us=1 * MS)
            except (Unreachable, RpcTimeout):
                return "failed"

        assert sim.run_process(proc()) == "failed"

    def test_server_crash_mid_request_times_out(self, sim, fabric):
        server, endpoint, client = self._make(sim, fabric)

        def handler(_payload):
            yield server.execute(100.0)
            return "late"

        endpoint.register("slow", handler)

        def proc():
            call = client.call(endpoint, "slow", None, timeout_us=5 * MS)
            sim.schedule(20.0, server.crash)
            try:
                yield call
            except RpcTimeout:
                return "timeout"

        assert sim.run_process(proc()) == "timeout"

    def test_reply_cancels_the_guard(self, sim, fabric):
        _server, endpoint, client = self._make(sim, fabric)
        endpoint.register("double", lambda x: x * 2)
        call = client.call(endpoint, "double", 4, timeout_us=5 * MS)
        sim.run()
        assert call.value == 8
        assert sim.now < 1 * MS  # not held open until the guard's instant
        assert sim.next_event_time() is None

    def test_timeout_fires_at_exactly_the_budget(self, sim, fabric):
        _server, endpoint, client = self._make(sim, fabric)
        sim.run(until=123.5)
        call = client.call(endpoint, "missing", None, timeout_us=1 * MS)
        sim.run()
        assert isinstance(call.exception, RpcTimeout)
        assert sim.now == 123.5 + 1 * MS

    def test_plain_handler_exception_takes_the_fail_path(self, sim, fabric):
        _server, endpoint, client = self._make(sim, fabric)

        def handler(_payload):
            raise KeyError("nope")

        endpoint.register("bad", handler)
        call = client.call(endpoint, "bad", None, timeout_us=5 * MS)
        sim.run()
        assert isinstance(call.exception, KeyError)
        assert sim.now < 1 * MS and sim.next_event_time() is None

    def test_unregister_stops_serving(self, sim, fabric):
        _server, endpoint, client = self._make(sim, fabric)
        endpoint.register("m", lambda x: x)
        endpoint.unregister("m")

        def proc():
            try:
                yield client.call(endpoint, "m", 1, timeout_us=1 * MS)
            except RpcTimeout:
                return "gone"

        assert sim.run_process(proc()) == "gone"

    def test_concurrent_requests_interleave(self, sim, fabric):
        server, endpoint, client = self._make(sim, fabric)

        def handler(payload):
            yield server.execute(10.0)
            return payload

        endpoint.register("echo", handler)

        def proc():
            calls = [client.call(endpoint, "echo", i) for i in range(8)]
            results = []
            for call in calls:
                results.append((yield call))
            return results

        assert sim.run_process(proc()) == list(range(8))

    def test_rpc_round_trip_is_about_50us(self, sim, fabric):
        """§6.3.3: ~50us of latency is attributed to the RPC layer."""
        _server, endpoint, client = self._make(sim, fabric)
        endpoint.register("noop", lambda x: x)

        def proc():
            start = sim.now
            yield client.call(endpoint, "noop", None)
            return sim.now - start

        elapsed = sim.run_process(proc())
        assert 30.0 <= elapsed <= 80.0
