"""Tests for the repro.api cluster façade."""

import pytest

from repro.api import SYSTEMS, Cluster, ScenarioFailed, system_spec
from repro.bench.calibration import SMOKE_SCALE
from repro.errors import ReproError
from repro.kv.client import KvClient, KvRequestFailed
from repro.shard.router import ShardRouter
from repro.sim import MS, SEC


def roundtrip(cluster):
    client = cluster.client()

    def scenario():
        yield from cluster.ready()
        yield from client.put(b"user:42", b"Ada Lovelace")
        value = yield from client.get(b"user:42")
        return value

    return cluster.run(scenario())


class TestBuild:
    def test_sift_roundtrip(self):
        cluster = Cluster.build("sift", seed=7)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_sift_ec_roundtrip(self):
        cluster = Cluster.build("sift-ec", seed=7)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_sift_recovery_partitions_knob_reaches_the_group(self):
        cluster = Cluster.build("sift", seed=7, recovery_partitions=4)
        assert cluster.inner.config.recovery_partitions == 4
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_raft_roundtrip(self):
        cluster = Cluster.build("raft-r", seed=7)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_epaxos_roundtrip(self):
        cluster = Cluster.build("epaxos", seed=7)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_sharded_roundtrip_and_client_type(self):
        cluster = Cluster.build("sharded", seed=7, shards=2, backups=1)
        assert isinstance(cluster.client(), ShardRouter)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_non_sharded_client_is_kv_client(self):
        cluster = Cluster.build("sift")
        assert isinstance(cluster.client(), KvClient)

    def test_build_takes_a_spec_and_picks_the_client_from_the_ring(self):
        """What ``runner.boot`` and ``ChaosRunner`` hand over: a spec
        around a bare ``build(fabric)`` names no client, so a cluster
        with a ring gets a router and any other a ``KvClient``."""
        from repro.bench.systems import SystemSpec

        for system, client_class in (("sharded", ShardRouter), ("raft-r", KvClient)):
            bare = SystemSpec("bare", system_spec(system, scale=SMOKE_SCALE).build)
            cluster = Cluster.build(bare, seed=7)
            assert cluster.spec is bare and bare.client_factory is None
            assert type(cluster.client()) is client_class
            assert roundtrip(cluster) == b"Ada Lovelace"

    def test_a_second_client_on_a_named_host_shares_it(self):
        cluster = Cluster.build("sift", seed=7)
        first = cluster.client(name="app", cores=2)
        patient = cluster.client(name="app", max_rounds=200)
        assert patient is not first and patient.host is first.host
        assert first.host.cpu.cores == 2 and patient.max_rounds == 200

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            system_spec("spanner")
        assert "sharded" in SYSTEMS

    def test_shared_fabric_colocates_two_systems(self):
        first = Cluster.build("sift", seed=3)
        second = Cluster.build("sharded", fabric=first.fabric, shards=2)
        assert second.sim is first.sim
        assert roundtrip(first) == b"Ada Lovelace"
        assert roundtrip(second) == b"Ada Lovelace"


#: What a system under test provides (the table in repro.bench.systems).
SYSTEM_PROTOCOL = (
    "fabric", "name", "kind", "leader_based", "durable_across_crash", "ring",
    "cpu_nodes", "memory_nodes", "start", "is_serving", "wait_until_serving",
    "leaders", "leader_node", "preload",
)


class TestSystemProtocol:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_system_conforms(self, system):
        cluster = Cluster.build(system, seed=7, scale=SMOKE_SCALE)
        inner = cluster.inner
        assert [m for m in SYSTEM_PROTOCOL if not hasattr(inner, m)] == []
        assert (inner.ring is not None) == (system == "sharded")
        assert bool(inner.memory_nodes) == (system in ("sift", "sift-ec", "sharded"))

        assert cluster.wait_ready() is not None
        assert inner.is_serving()
        assert inner.leader_node() in inner.cpu_nodes
        for host_name, _term in inner.leaders():
            assert host_name in cluster.fabric.hosts

        topo = cluster.topology()
        assert set(topo.placement) == set(topo.groups)
        assert all(host in cluster.fabric.hosts for host in topo.placement.values())

        assert type(cluster.client()) is (cluster.spec.client_factory or KvClient)

        cluster.preload([(b"conf:%d" % i, b"v%d" % i) for i in range(8)])
        client = cluster.client()
        assert cluster.run(client.get(b"conf:5")) == b"v5"

    @pytest.mark.parametrize("system", ["raft-r", "epaxos"])
    def test_topology_of_a_baseline_places_the_leader_host(self, system):
        cluster = Cluster.build(system, seed=7, scale=SMOKE_SCALE)
        inner = cluster.inner
        if system == "raft-r":  # no leader before the first election
            assert cluster.topology().placement == {inner.name: None}
        cluster.wait_ready()
        topo = cluster.topology()
        assert topo.shards == topo.groups == (inner.name,)
        assert topo.pool is None and topo.ring_version == 0
        assert topo.placement == {inner.name: inner.leader_node().host.name}
        for node in inner.cpu_nodes:
            node.crash()
        assert cluster.topology().coordinator_of(inner.name) is None

    def test_epaxos_wait_ready_means_a_live_fast_quorum(self):
        cluster = Cluster.build("epaxos", seed=7, scale=SMOKE_SCALE)
        inner = cluster.inner
        first, second, _third = inner.replicas
        first.crash()
        # Two of three is still a fast quorum: ready without yielding
        # once, and the replica handed back is a live one.
        with pytest.raises(StopIteration) as ready:
            next(inner.wait_until_serving(timeout_us=1 * SEC))
        assert ready.value.value is second
        assert cluster.wait_ready() is second
        second.crash()
        assert not inner.is_serving()
        with pytest.raises(TimeoutError):
            cluster.wait_ready()
        # The wait polls every 1 ms (and Cluster.run steps in 1 ms slices).
        restart_at = cluster.sim.now + 2.5 * MS

        def restart_later():
            yield cluster.sim.timeout(2.5 * MS)
            second.restart()

        cluster.sim.spawn(restart_later(), name="restart-later")
        assert cluster.wait_ready() is second
        assert restart_at <= cluster.sim.now <= restart_at + 2 * MS


class TestRun:
    def test_wait_ready_and_preload(self):
        cluster = Cluster.build("sift", seed=5)
        cluster.wait_ready()
        cluster.preload([(b"pre:%d" % i, b"v%d" % i) for i in range(10)])
        client = cluster.client()

        def scenario():
            value = yield from client.get(b"pre:3")
            return value

        assert cluster.run(scenario()) == b"v3"

    def test_run_reraises_scenario_exception(self):
        cluster = Cluster.build("sift", seed=5)
        cluster.wait_ready()
        client = cluster.client(request_timeout_us=5 * MS, max_rounds=2)
        for node in list(cluster.inner.cpu_nodes):
            node.crash()

        def scenario():
            yield from client.put(b"k", b"v")

        with pytest.raises(KvRequestFailed) as excinfo:
            cluster.run(scenario())
        # Unified hierarchy: request failures are retryable ReproErrors.
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.retryable

    def test_run_flags_unsettled_scenario(self):
        cluster = Cluster.build("sift", seed=5)

        def stall():
            while True:
                yield cluster.sim.timeout(1 * SEC)

        with pytest.raises(ScenarioFailed):
            cluster.run(stall(), deadline_us=2 * SEC)

    def test_run_without_process_advances_time(self):
        cluster = Cluster.build("sift", seed=5)
        target = cluster.sim.now + 1 * SEC
        cluster.run(until=target)
        assert cluster.sim.now == target


class TestLegacyKeywordsGone:
    def test_legacy_duration_kwarg_is_an_unknown_keyword(self):
        cluster = Cluster.build("sift", seed=5)
        with pytest.raises(TypeError, match="request_timeout"):
            cluster.client(request_timeout=7 * MS)
