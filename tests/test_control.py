"""Tests for the elastic control plane (repro.control, repro.api).

Covers ring-version monotonicity as a property suite over random
split/merge sequences, linearizability under live key migration
(concurrent recorded clients across a split and a merge),
coordinator-failover and source-crash cells mid-migration, the
redesigned ``Cluster.topology()/scale()/migrate()`` surface, the two
:class:`StatsSnapshot` readings and the readers that depend on them
(the open-loop account of ``benchmarks/e2e`` and ``Topology.pool`` of
``examples/shared_backup_fleet.py``), and ring-version-aware chaos
targeting.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster, ReproError, Topology
from repro.bench.lincheck import History, RecordingClient, check_history
from repro.control import MigrationManager, Reconciler, ReconcilerConfig
from repro.kv.config import KvConfig
from repro.net import Fabric
from repro.shard import HashRing, ShardRouter, ShardedKvService
from repro.shard.hashing import key_point, ranges_contain
from repro.sim import MS, SEC, Simulator
from repro.sim.rng import RngStreams
from repro.workloads import (
    WORKLOADS,
    AdmissionControl,
    OpenLoopEngine,
    StripedZipfSampler,
)

SMALL_KV = KvConfig(max_keys=512, wal_entries=256)


def make_service(shards=2, backups=1, provisioning_delay_us=2 * SEC, seed=7, **kw):
    sim = Simulator()
    fabric = Fabric(sim, rng=RngStreams(seed=seed))
    service = ShardedKvService(
        fabric,
        shards=shards,
        backups=backups,
        provisioning_delay_us=provisioning_delay_us,
        kv_config=SMALL_KV,
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


def serve(sim, service):
    run(sim, service.wait_until_serving(timeout_us=30 * SEC))


# ---------------------------------------------------------------------------
# Ring-version properties
# ---------------------------------------------------------------------------


class TestRingVersioning:
    """Monotonicity and conservation over random mutation sequences."""

    @given(st.lists(st.booleans(), min_size=1, max_size=8), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_mutation_sequence_invariants(self, plan, key_seed):
        ring = HashRing(["s0", "s1"])
        keys = [b"pk%d-%d" % (key_seed, i) for i in range(80)]
        points = sorted(ring._points)
        version = ring.version
        counter = 2
        for do_split in plan:
            if do_split or len(ring.shards) < 2:
                before = {k: ring.shard_for(k) for k in keys}
                victim = ring.shards[len(ring.shards) // 2]
                new = f"s{counter}"
                counter += 1
                ring, moved = ring.split(victim, new)
                # Only keys inside the returned arcs changed owner, and
                # every one of them now belongs to the new shard.
                for k in keys:
                    if ring.shard_for(k) != before[k]:
                        assert before[k] == victim
                        assert ring.shard_for(k) == new
                        assert ranges_contain(moved, key_point(k))
                    else:
                        assert not ranges_contain(moved, key_point(k))
            else:
                victim = ring.shards[0]
                into = ring.shards[-1]
                before = {k: ring.shard_for(k) for k in keys}
                ring, moved = ring.merge(victim, into)
                assert victim not in ring.shards
                for k in keys:
                    expect = into if before[k] == victim else before[k]
                    assert ring.shard_for(k) == expect
            # Version strictly advances by one per mutation, and the
            # point multiset is conserved (vnodes move, never vanish).
            assert ring.version == version + 1
            version = ring.version
            assert sorted(ring._points) == points
            # Every key has exactly one owner on the current ring.
            for k in keys:
                assert ring.shard_for(k) in ring.shards

    def test_install_ring_must_advance_version(self):
        sim, fabric, service = make_service()
        serve(sim, service)
        with pytest.raises(ValueError):
            service.install_ring(service.ring)  # same version: rejected

    def test_ring_history_records_every_version(self):
        sim, fabric, service = make_service()
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        cluster.migrate(service.ring.shards[0])
        assert sorted(service.ring_history) == [0, 1]
        assert all(
            service.ring_history[v].version == v for v in service.ring_history
        )


# ---------------------------------------------------------------------------
# Topology API
# ---------------------------------------------------------------------------


def _wrap(sim, fabric, service) -> Cluster:
    """A Cluster handle over an already-built service (test harness)."""
    from repro.bench.systems import SystemSpec

    spec = SystemSpec(
        name="sharded",
        build=lambda f: service,
        client_factory=ShardRouter,
        ready_timeout_us=30 * SEC,
    )
    return Cluster(spec, fabric, service)


class TestTopologyApi:
    def test_topology_snapshot_fields(self):
        sim, fabric, service = make_service(shards=2, backups=1)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        topo = cluster.topology()
        assert isinstance(topo, Topology)
        assert topo.shards == service.ring.shards
        assert topo.ring_version == 0
        assert set(topo.groups) >= set(topo.shards)
        for shard in topo.shards:
            assert topo.coordinator_of(shard) is not None
        assert topo.pool is not None and topo.pool.kind == "backup_pool"

    def test_scale_out_and_back(self):
        sim, fabric, service = make_service(shards=2)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        router = cluster.client()
        items = {b"elastic:%02d" % i: b"v%02d" % i for i in range(24)}

        def preload():
            for key, value in items.items():
                yield from router.put(key, value)

        run(sim, preload())
        topo = cluster.scale(shards=4)
        assert len(topo.shards) == 4 and topo.ring_version == 2
        topo = cluster.scale(shards=2)
        assert len(topo.shards) == 2 and topo.ring_version == 4
        # Each merged-away group is retired once its forwarding window
        # closes: off the topology, off the pool's watch list, hosts down.
        assert set(topo.groups) == set(topo.shards)
        assert {g.name for g in service.pool.groups} == set(topo.shards)
        retired = [name for name in fabric.hosts
                   if "-cpu" in name and name.split("-cpu")[0] not in topo.shards]
        assert len(retired) == 2
        assert not any(fabric.hosts[name].alive for name in retired)

        def readback():
            out = {}
            for key in items:
                out[key] = yield from router.get(key)
            return out

        assert run(sim, readback()) == items

    def test_scale_backups_resizes_pool(self):
        sim, fabric, service = make_service(shards=2, backups=1)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        cluster.scale(backups=3)
        assert service.pool.capacity == 3

    def test_scale_auto_returns_running_reconciler(self):
        sim, fabric, service = make_service(shards=2)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        reconciler = cluster.scale(auto=True, config=ReconcilerConfig(
            interval_us=20 * MS))
        assert isinstance(reconciler, Reconciler)
        sim.run(until=sim.now + 100 * MS)
        assert reconciler.rounds >= 4
        reconciler.stop()

    def test_migrate_merge_then_retire(self):
        sim, fabric, service = make_service(shards=2)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        victim, survivor = service.ring.shards
        manager = cluster.migrate(victim, to=survivor)
        assert manager.done and manager.cutover_at is not None
        assert service.ring.shards == (survivor,)
        # The merged-away group is off the ring but still provisioned
        # until retired — visible in the topology, then gone.
        assert victim in cluster.topology().groups
        service.retire_group(victim)
        assert victim not in cluster.topology().groups

    def test_mutation_rejected_on_non_sharded(self):
        from repro.bench.calibration import SMOKE_SCALE

        cluster = Cluster.build("sift", seed=3, scale=SMOKE_SCALE)
        with pytest.raises(ReproError):
            cluster.scale(shards=2)


# ---------------------------------------------------------------------------
# Stats protocol
# ---------------------------------------------------------------------------


class TestStatsProtocol:
    def test_readings_match_their_readers(self):
        sim, fabric, service = make_service()
        serve(sim, service)
        engine = OpenLoopEngine(
            fabric,
            service,
            WORKLOADS["mixed"],
            StripedZipfSampler(256, service.ring),
            offered_ops_per_sec=20_000.0,
            n_clients=1_000,
            admission=AdmissionControl(max_inflight=4, queue_limit=64),
        )
        engine.start()
        engine.begin_measurement()
        sim.run(until=sim.now + 30 * MS)
        engine.end_measurement()
        engine.stop()

        # The counters and gauge benchmarks/e2e's _open_loop_account reads.
        snap = engine.snapshot()
        account = {
            "offered": engine.counts["offered"],
            "admitted": engine.counts["admitted"],
            "completed": engine.counts["completed"],
            "errors": engine.counts["errors"],
            "retries": engine.counts["retries"],
            "shed_queue": engine.shed["queue"],
            "shed_throttle": engine.shed["throttle"],
        }
        assert account["completed"] > 0
        for key, value in account.items():
            assert snap.counter(key, default=-1.0) == value, key
        assert snap.gauge("clients_active", default=-1.0) == engine.clients_active

        # The gauges examples/shared_backup_fleet.py prints.
        pool = _wrap(sim, fabric, service).topology().pool
        assert pool.gauges["idle"] == service.pool.idle_backups
        assert pool.gauges["capacity"] == service.pool.capacity

    def test_router_cache_invalidation_follows_ring_version(self):
        sim, fabric, service = make_service()
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        router = cluster.client()
        run(sim, router.put(b"before-split", b"v"))
        assert router.ring_version == 0
        cluster.migrate(service.ring.shards[0])
        run(sim, router.get(b"before-split"))  # any op resyncs
        assert router.ring_version == service.ring.version
        assert router.cache_invalidations >= 1
        assert set(router.clients) == set(service.ring.shards)


# ---------------------------------------------------------------------------
# Linearizability under migration
# ---------------------------------------------------------------------------


def _recorded_client(sim, history, router, keys, stop, gap_us=500.0,
                     max_ops=90):
    # max_ops keeps every per-key history under the exhaustive
    # checker's 64-op limit (ops per key ~= max_ops / len(keys)).
    client = RecordingClient(router, history)

    def loop():
        count = 0
        while not stop["stop"] and count < max_ops:
            key = keys[count % len(keys)]
            if count % 3 == 2:
                yield from client.get(key)
            else:
                yield from client.put(key, b"w%05d" % count)
            count += 1
            yield sim.timeout(gap_us)

    return loop


class TestLincheckUnderMigration:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_split_migration_is_linearizable(self, seed):
        sim, fabric, service = make_service(seed=seed)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        history = History()
        stop = {"stop": False}
        keys = [b"mig:%02d" % i for i in range(6)]
        routers = [cluster.client(name=f"lc{i}") for i in range(3)]
        for i, router in enumerate(routers):
            host = fabric.host(f"lc{i}")
            host.spawn(
                _recorded_client(sim, history, router, keys[i * 2:i * 2 + 2],
                                 stop)(),
                name=f"lc{i}",
            )
        sim.run(until=sim.now + 20 * MS)
        manager = cluster.migrate(service.ring.shards[0],
                                  forward_window_us=30 * MS)
        stop["stop"] = True
        sim.run(until=sim.now + 20 * MS)

        assert manager.done
        assert manager.stats["copied"] > 0
        ok, offending = check_history(history)
        assert ok, f"non-linearizable history on {offending!r} (seed {seed})"
        # Every client write acked before the check must read back.
        last = {}
        for op in history.ops:
            if op.kind == "put" and op.responded_at is not None:
                last[op.key] = op.value

        def readback():
            for key, expect in sorted(last.items()):
                value = yield from routers[0].get(key)
                assert value == expect, key
        run(sim, readback())

    def test_merge_migration_is_linearizable(self):
        sim, fabric, service = make_service(seed=11)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        history = History()
        stop = {"stop": False}
        router = cluster.client(name="mc")
        fabric.host("mc").spawn(
            _recorded_client(sim, history, router,
                             [b"mg:%d" % i for i in range(4)], stop)(),
            name="mc",
        )
        sim.run(until=sim.now + 10 * MS)
        victim, survivor = service.ring.shards
        cluster.migrate(victim, to=survivor, forward_window_us=30 * MS)
        stop["stop"] = True
        sim.run(until=sim.now + 20 * MS)
        ok, offending = check_history(history)
        assert ok, f"non-linearizable merge history on {offending!r}"


# ---------------------------------------------------------------------------
# Chaos mid-migration
# ---------------------------------------------------------------------------


class TestMigrationChaos:
    def test_source_coordinator_crash_mid_copy_restarts_scan(self):
        """Crash the source coordinator while the copy pass runs: the
        manager restarts the scan on the promoted successor (the
        mirror-hook window died with the old coordinator) and still
        finishes with zero acked-write loss."""
        sim, fabric, service = make_service(seed=5)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        router = cluster.client()
        source = service.ring.shards[0]
        items = {}

        def preload():
            for i in range(120):
                key = b"cc:%03d" % i
                if service.shard_for(key) == source:
                    yield from router.put(key, b"v%03d" % i)
                    items[key] = b"v%03d" % i

        run(sim, preload())
        manager = MigrationManager.split(
            fabric, service, source, forward_window_us=30 * MS,
            scan_page_buckets=64,
        )
        migration = sim.spawn(manager.run(), name="mig")

        def crash_mid_scan():
            # Wait for the copy pass to be demonstrably underway, then
            # kill the coordinator it is scanning.
            while manager.stats["pages"] < 1:
                yield sim.timeout(20.0)
            assert not manager.done
            service.crash_coordinator(shard=source)

        sim.spawn(crash_mid_scan(), name="chaos")
        sim.run_until_settled(migration, deadline=120 * SEC)
        if migration.failed:
            raise migration.exception
        assert manager.done
        assert manager.stats["restarts"] >= 1

        def readback():
            for key, expect in sorted(items.items()):
                value = yield from router.get(key)
                assert value == expect, key
        run(sim, readback())

    def test_crash_coordinator_is_ring_version_aware(self):
        """A shard name written against the pre-split ring still lands
        on the group owning that key range under the current ring."""
        sim, fabric, service = make_service()
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        original = service.ring.shards[0]
        cluster.migrate(original)  # split: half of `original` moved away
        run(sim, service.wait_until_serving(timeout_us=30 * SEC))
        resolved = service.resolve_shard(original, ring_version=0)
        target = service.coordinators()[resolved]
        crashed = service.crash_coordinator(shard=original, ring_version=0)
        assert crashed is not None and crashed.host.name == target
        assert service.coordinators()[resolved] is None


# ---------------------------------------------------------------------------
# Reconciler policy
# ---------------------------------------------------------------------------


class TestReconciler:
    def test_splits_hot_shard_from_observed_load(self):
        sim, fabric, service = make_service(seed=9)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        router = cluster.client()
        hot = service.ring.shards[0]
        hot_keys = [k for k in (b"h%03d" % i for i in range(200))
                    if service.shard_for(k) == hot][:8]
        reconciler = cluster.scale(auto=True, config=ReconcilerConfig(
            interval_us=10 * MS,
            min_split_ops=20,
            imbalance_factor=1.2,
            max_shards=3,
            forward_window_us=20 * MS,
        ))
        stop = {"stop": False}

        def hammer():
            count = 0
            while not stop["stop"]:
                yield from router.put(hot_keys[count % len(hot_keys)], b"x")
                count += 1
                yield sim.timeout(100.0)

        fabric.add_host("hammer", cores=2).spawn(hammer(), name="hammer")
        sim.run(until=sim.now + 250 * MS)
        stop["stop"] = True
        reconciler.stop()
        sim.run(until=sim.now + 10 * MS)
        assert reconciler.splits >= 1
        assert len(service.ring.shards) == 3
        assert ("split", ) == tuple({a for _t, a, _d in reconciler.log
                                     if a == "split"})

    def test_merges_idle_shard_and_retires_its_group(self):
        """``merge_idle_factor`` on: the cold shard is merged into the
        loaded one and its group is decommissioned afterwards — off the
        topology and the pool's watch list, hosts down — with every
        acked key still readable."""
        sim, fabric, service = make_service(seed=9)
        serve(sim, service)
        cluster = _wrap(sim, fabric, service)
        router = cluster.client()
        hot, cold = service.ring.shards
        acked = {}

        def preload():
            for i in range(40):
                key, value = b"mi%03d" % i, b"v%03d" % i
                yield from router.put(key, value)
                acked[key] = value

        run(sim, preload())
        assert {service.shard_for(k) for k in acked} == {hot, cold}
        hot_keys = [k for k in acked if service.shard_for(k) == hot][:8]
        reconciler = cluster.scale(auto=True, config=ReconcilerConfig(
            interval_us=10 * MS,
            max_shards=2,
            merge_idle_factor=0.5,
            forward_window_us=20 * MS,
        ))
        stop = {"stop": False}

        def hammer():
            count = 0
            while not stop["stop"]:
                key = hot_keys[count % len(hot_keys)]
                acked[key] = b"x%d" % count
                yield from router.put(key, acked[key])
                count += 1
                yield sim.timeout(100.0)

        worker = fabric.add_host("hammer", cores=2).spawn(hammer(), name="hammer")
        sim.run(until=sim.now + 250 * MS)
        stop["stop"] = True
        reconciler.stop()
        sim.run_until_settled(worker, deadline=sim.now + 1 * SEC)
        assert worker.settled and not worker.failed
        assert reconciler.merges == 1 and reconciler.splits == 0
        assert [d for _t, a, d in reconciler.log if a == "merge"] == [
            {"shard": cold, "into": hot}
        ]
        topo = cluster.topology()
        assert topo.shards == topo.groups == (hot,)
        assert [g.name for g in service.pool.groups] == [hot]
        gone = [h for name, h in fabric.hosts.items() if name.startswith(f"{cold}-")]
        assert len(gone) == 4 and not any(h.alive for h in gone)

        def readback():
            out = {}
            for key in acked:
                out[key] = yield from router.get(key)
            return out

        assert run(sim, readback()) == acked

    def test_pool_resize_follows_fig8_replay(self):
        sim, fabric, service = make_service(backups=1,
                                            provisioning_delay_us=100 * SEC)
        serve(sim, service)
        reconciler = Reconciler(fabric, service, ReconcilerConfig(
            interval_us=10 * MS, pool_max=4))
        # Two promotion requests far closer together than a 100s
        # provisioning delay: the replay must ask for a second spare.
        service.crash_coordinator(shard=service.ring.shards[0])
        sim.run(until=sim.now + 60 * MS)
        service.crash_coordinator(shard=service.ring.shards[1])
        sim.run(until=sim.now + 60 * MS)
        # The second request is still waiting (one spare, 100s
        # provisioning) — it must be visible to the replay anyway.
        assert len(service.pool.request_log) == 2
        assert len(service.pool.promotion_log) == 1
        run(sim, reconciler.reconcile_once())
        assert service.pool.capacity == 2
        assert reconciler.pool_resizes == 1


# ---------------------------------------------------------------------------
# Hotspot sampler
# ---------------------------------------------------------------------------


class TestHotspotSampler:
    def test_retarget_is_a_bijection_and_stripes_hot_ranks(self):
        import numpy as np

        from repro.workloads.generator import HotspotZipfSampler

        ring = HashRing(["a", "b", "c"])
        sampler = HotspotZipfSampler(120, ring)
        sampler.retarget(1, 30)
        mapping = sampler._map
        assert sorted(mapping.tolist()) == list(range(120))  # bijection
        ranks = np.arange(30, dtype=np.int64)
        assert set(sampler.shard_index_batch(ranks).tolist()) == {1}
        # Rendered keys follow the striping invariant: hot ranks render
        # keys the *ring* places on shard "b".
        for rank in range(30):
            assert ring.shard_for(sampler.key(rank)) == "b"

    def test_retarget_consumes_no_rng(self):
        import random

        from repro.workloads.generator import HotspotZipfSampler

        ring = HashRing(["a", "b"])
        plain = HotspotZipfSampler(64, ring)
        shifted = HotspotZipfSampler(64, ring)
        rng_a, rng_b = random.Random(13), random.Random(13)
        first = plain.sample_batch(rng_a, 50)
        shifted.retarget(0, 16)
        second = shifted.sample_batch(rng_b, 50)
        assert first.tolist() == second.tolist()  # same rank stream
