"""Tests for the sharded KV service (repro.shard).

Covers the ISSUE's required cases: shard-routing stability (the ring is
a pure function of the shard names, so a restarted process routes every
key identically), coordinator failover drawing replacements from the
live backup pool, and pool-exhaustion waits matching the
:class:`repro.cluster.backups.PoolAccountant` heap model per fault.
"""

import pytest

from repro.cluster.backups import PoolAccountant
from repro.shard import HashRing, ShardRouter, ShardedKvService
from repro.sim import MS, SEC, Simulator
from repro.net import Fabric
from repro.sim.rng import RngStreams
from repro.workloads import StripedZipfSampler


def make_service(shards=2, backups=1, provisioning_delay_us=2 * SEC, seed=7, **kw):
    sim = Simulator()
    fabric = Fabric(sim, rng=RngStreams(seed=seed))
    service = ShardedKvService(
        fabric,
        shards=shards,
        backups=backups,
        provisioning_delay_us=provisioning_delay_us,
        **kw,
    )
    service.start()
    return sim, fabric, service


def run(sim, gen, until=300 * SEC):
    process = sim.spawn(gen)
    sim.run_until_settled(process, deadline=until)
    assert process.settled
    if process.failed:
        raise process.exception
    return process.value


class TestHashRing:
    def test_same_key_same_shard_across_instances(self):
        """The ring hashes shard names with SHA-1, not Python's salted
        hash(): two independently built rings agree on every key."""
        names = ["shard0", "shard1", "shard2"]
        a, b = HashRing(names), HashRing(names)
        keys = [b"key%018d.0000" % i for i in range(500)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_construction_order_irrelevant(self):
        keys = [b"k%d" % i for i in range(200)]
        forward = HashRing(["a", "b", "c"])
        backward = HashRing(["c", "b", "a"])
        assert [forward.shard_for(k) for k in keys] == [
            backward.shard_for(k) for k in keys
        ]

    def test_spread_is_roughly_balanced(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        counts = ring.spread(b"key%018d.0000" % i for i in range(4000))
        assert set(counts) == {f"s{i}" for i in range(4)}
        assert min(counts.values()) > 400  # no shard starved

    def test_adding_a_shard_moves_a_minority_of_keys(self):
        keys = [b"key%d" % i for i in range(2000)]
        before = HashRing(["s0", "s1", "s2"])
        after = HashRing(["s0", "s1", "s2", "s3"])
        moved = sum(
            1 for k in keys if before.shard_for(k) != after.shard_for(k)
        )
        assert 0 < moved < len(keys) // 2

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])

    def test_shard_index_batch_matches_shard_for(self):
        """The vectorized lookup (joined SHA-1 digests, one
        searchsorted) agrees with the scalar ring walk key by key."""
        ring = HashRing([f"s{i}" for i in range(5)])
        keys = [b"key%018d.%04d" % (i, i % 7) for i in range(1000)]
        owners = ring.shard_index_batch(keys)
        assert [ring.shards[i] for i in owners] == [
            ring.shard_for(k) for k in keys
        ]

    def test_shard_index_batch_empty(self):
        ring = HashRing(["a", "b"])
        assert len(ring.shard_index_batch([])) == 0


class TestRouting:
    def test_router_sends_each_key_to_its_ring_shard(self):
        sim, fabric, service = make_service(shards=3)
        router = ShardRouter(fabric.add_host("client", cores=2), fabric, service)

        def scenario():
            yield from service.wait_until_serving(timeout_us=10 * SEC)
            for i in range(30):
                key = b"route-%d" % i
                yield from router.put(key, b"v%d" % i)
            for i in range(30):
                value = yield from router.get(b"route-%d" % i)
                assert value == b"v%d" % i

        run(sim, scenario())
        # Every key went through the client owned by its ring shard, and
        # more than one shard saw traffic.
        per_shard = {
            name: client.stats["requests"] for name, client in router.clients.items()
        }
        assert sum(per_shard.values()) == router.stats["requests"] == 60
        assert sum(1 for n in per_shard.values() if n > 0) >= 2

    def test_routing_stable_across_service_restart(self):
        """A rebuilt service (fresh process, fresh fabric) owns every
        key on the same shard, so clients never need remapping."""
        keys = [b"stable-%d" % i for i in range(100)]
        _, _, first = make_service(shards=3, seed=1)
        mapping = {k: first.shard_for(k) for k in keys}
        _, _, second = make_service(shards=3, seed=99)
        assert {k: second.shard_for(k) for k in keys} == mapping


class TestFailover:
    def test_coordinator_failover_draws_from_live_pool(self):
        sim, fabric, service = make_service(shards=2, backups=1)
        router = ShardRouter(fabric.add_host("client", cores=2), fabric, service)

        def scenario():
            yield from service.wait_until_serving(timeout_us=10 * SEC)
            yield from router.put(b"survivor", b"before-crash")
            shard = service.shard_for(b"survivor")
            service.crash_coordinator(shard)
            value = yield from router.get(b"survivor")
            return shard, value

        shard, value = run(sim, scenario())
        assert value == b"before-crash"
        assert service.pool.promotions == 1
        promo = service.pool.promotion_log[0]
        assert promo.group == shard
        # The promoted pool VM is now a member of the failed group.
        members = [n.host.name for n in service._group(shard).cpu_nodes]
        assert promo.host in members

    def test_idle_spare_promotes_without_wait(self):
        sim, fabric, service = make_service(shards=2, backups=2)

        def scenario():
            yield from service.wait_until_serving(timeout_us=10 * SEC)
            service.crash_coordinator(service.groups[0].name)
            yield from service.wait_until_serving(timeout_us=10 * SEC)

        run(sim, scenario())
        assert service.pool.promotions == 1
        assert service.pool.waits == 0
        assert service.pool.promotion_log[0].wait_us == 0.0


class TestPoolExhaustion:
    def test_exhaustion_waits_match_accountant(self):
        """Crash coordinators faster than the pool re-provisions; each
        promotion's wait must equal the PoolAccountant heap model
        replayed at the same request times."""
        delay_us = 1.5 * SEC
        sim, fabric, service = make_service(
            shards=2, backups=1, provisioning_delay_us=delay_us
        )

        def scenario():
            yield from service.wait_until_serving(timeout_us=10 * SEC)
            base = sim.now
            for fault in range(3):
                target = service.groups[fault % 2]
                yield sim.timeout(base + (fault + 1) * 0.4 * SEC - sim.now)
                yield from target.wait_until_serving(timeout_us=10 * SEC)
                service.crash_coordinator(target.name)
            while service.pool.promotions < 3:
                yield sim.timeout(50 * MS)
            yield from service.wait_until_serving(timeout_us=20 * SEC)

        run(sim, scenario())
        accountant = PoolAccountant(backups=1, provision_s=delay_us / 1e6)
        model_waits = [
            accountant.fault(promo.request_us / 1e6)
            for promo in service.pool.promotion_log
        ]
        live_waits = [p.wait_us / 1e6 for p in service.pool.promotion_log]
        assert live_waits == pytest.approx(model_waits, abs=1e-6)
        assert service.pool.waits == accountant.waits
        assert service.pool.waits >= 1  # the gap really exhausted the pool
        assert service.pool.recovery_wait_us_per_fault() == pytest.approx(
            accountant.total_extra_s * 1e6 / 3, abs=1.0
        )

    def test_zero_capacity_pool_charges_full_delay(self):
        delay_us = 1 * SEC
        sim, fabric, service = make_service(
            shards=2, backups=0, provisioning_delay_us=delay_us
        )

        def scenario():
            yield from service.wait_until_serving(timeout_us=10 * SEC)
            service.crash_coordinator(service.groups[0].name)
            yield from service.wait_until_serving(timeout_us=20 * SEC)

        run(sim, scenario())
        assert service.pool.promotions == 1
        assert service.pool.promotion_log[0].wait_us == pytest.approx(delay_us)
        model = PoolAccountant(backups=0, provision_s=delay_us / 1e6)
        assert model.fault(0.0) == pytest.approx(delay_us / 1e6)


class TestChaosIntegration:
    def test_chaos_runner_drives_sharded_service(self):
        """ChaosRunner reads the service as kind "sharded", routes its workload
        through a ShardRouter, and the history stays linearizable while
        the pool replaces a crashed coordinator."""
        from repro.chaos import ChaosRunner, FaultSchedule
        from repro.kv import KvConfig

        def build(fabric):
            service = ShardedKvService(
                fabric,
                shards=2,
                backups=1,
                kv_config=KvConfig(
                    max_keys=256, wal_entries=128, watermark_interval=32
                ),
                provisioning_delay_us=1 * SEC,
            )
            service.start()
            return service

        # Index 0 of the flattened node list is shard 0's coordinator.
        schedule = FaultSchedule().crash_node(200 * MS, 0)
        runner = ChaosRunner(build, schedule, seed=3)
        result = runner.run()
        assert runner.cluster.kind == "sharded"
        assert not runner.cluster.leader_based
        assert runner.cluster.pool.promotions == 1
        assert result.acked_puts > 0


class TestCommittedBaseline:
    def test_fig8live_baseline_agrees_with_trace_model(self):
        """The committed fig8live artifact must show the live pool
        agreeing with the PoolAccountant trace model on every point and
        every repetition's waits matching exactly."""
        import json
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "baselines"
            / "BENCH_fig8live.json"
        )
        doc = json.loads(path.read_text())
        assert doc["figure"] == "fig8live"
        points = doc["simulated"]
        assert points  # at least one shard count
        for name, point in points.items():
            assert point["agrees"], f"{name} disagrees in committed baseline"
            assert (
                abs(point["live_per_fault_us"] - point["model_per_fault_us"])
                <= point["tolerance_us"]
            )
            for rep in point["repetitions"]:
                assert rep["live_waits"] == rep["model_waits"]
                assert rep["promotions"] == len(rep["crash_times_us"])


class TestStripedSampler:
    def test_keys_stripe_round_robin_over_shards(self):
        _, _, service = make_service(shards=3)
        sampler = StripedZipfSampler(60, service.ring)
        shards = [g.name for g in service.groups]
        for rank in range(60):
            key = sampler.key(rank)
            assert service.shard_for(key) == shards[rank % 3]
