"""Tests for the Raft-R baseline (§6.3.1)."""


from repro.baselines.raft import RaftCluster, RaftConfig
from repro.kv.client import KvClient
from repro.net import Fabric, PartitionController
from repro.sim import MS, SEC, Simulator


def make_cluster(f=1, **overrides):
    sim = Simulator()
    fabric = Fabric(sim)
    config = RaftConfig(f=f, **overrides)
    cluster = RaftCluster(fabric, config)
    cluster.start()
    client = KvClient(fabric.add_host("client", cores=4), fabric, cluster)
    return sim, fabric, cluster, client


def run(sim, gen, until=60 * SEC):
    process = sim.spawn(gen)
    sim.run_until_settled(process, deadline=until)
    assert process.settled, "scenario did not finish"
    if process.failed:
        raise process.exception
    return process.value


class TestElection:
    def test_single_leader_elected(self):
        sim, _f, cluster, _client = make_cluster()
        sim.run(until=500 * MS)
        leaders = [n for n in cluster.nodes if n.role == "leader"]
        assert len(leaders) == 1

    def test_reelection_after_leader_crash(self):
        sim, _f, cluster, _client = make_cluster()
        sim.run(until=500 * MS)
        first = cluster.leader_node()
        first.crash()
        sim.run(until=sim.now + 1 * SEC)
        second = cluster.leader_node()
        assert second is not None and second is not first
        assert second.term > first.term

    def test_five_node_cluster(self):
        sim, _f, cluster, _client = make_cluster(f=2)
        sim.run(until=1 * SEC)
        assert sum(1 for n in cluster.nodes if n.role == "leader") == 1


class TestReplication:
    def test_put_get(self):
        sim, _f, cluster, client = make_cluster()

        def scenario():
            yield from cluster.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"v")
            return (yield from client.get(b"k"))

        assert run(sim, scenario()) == b"v"

    def test_writes_replicated_to_followers(self):
        sim, _f, cluster, client = make_cluster()

        def scenario():
            yield from cluster.wait_until_serving(timeout_us=2 * SEC)
            for index in range(20):
                yield from client.put(b"k%d" % index, b"v%d" % index)
            yield sim.timeout(20 * MS)  # let followers apply
            return [node.stats["applied"] for node in cluster.nodes]

        applied = run(sim, scenario())
        # 20 puts plus the leader's election no-op entry.
        assert all(count >= 20 for count in applied)

    def test_delete(self):
        sim, _f, cluster, client = make_cluster()

        def scenario():
            yield from cluster.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"v")
            yield from client.delete(b"k")
            return (yield from client.get(b"k"))

        assert run(sim, scenario()) is None

    def test_data_survives_leader_crash(self):
        sim, _f, cluster, client = make_cluster()

        def scenario():
            yield from cluster.wait_until_serving(timeout_us=2 * SEC)
            for index in range(30):
                yield from client.put(b"k%02d" % index, b"v%02d" % index)
            cluster.crash_leader()
            return (yield from client.get(b"k17"))

        assert run(sim, scenario()) == b"v17"

    def test_logs_stay_consistent(self):
        sim, _f, cluster, client = make_cluster()

        def scenario():
            yield from cluster.wait_until_serving(timeout_us=2 * SEC)
            for index in range(50):
                yield from client.put(b"k%d" % (index % 7), b"v%d" % index)
            yield sim.timeout(20 * MS)
            logs = [[entry.op for entry in node.log] for node in cluster.nodes]
            return logs

        logs = run(sim, scenario())
        assert logs[0] == logs[1] == logs[2]

    def test_preload(self):
        sim, _f, cluster, client = make_cluster()
        cluster.preload([(b"a", b"1"), (b"b", b"2")])

        def scenario():
            yield from cluster.wait_until_serving(timeout_us=2 * SEC)
            return (yield from client.get(b"b"))

        assert run(sim, scenario()) == b"2"


class TestSafety:
    def test_partitioned_leader_steps_down_on_new_term(self):
        sim, fabric, cluster, client = make_cluster()

        def scenario():
            leader = yield from cluster.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"before")
            controller = PartitionController(fabric)
            controller.isolate(leader.host.name)
            yield sim.timeout(1 * SEC)
            others = [n for n in cluster.nodes if n is not leader]
            new_leader = next((n for n in others if n.role == "leader"), None)
            assert new_leader is not None, "no new leader elected"
            # Heal; the old leader must observe the higher term and yield.
            controller.heal()
            yield sim.timeout(200 * MS)
            leaders = [n for n in cluster.nodes if n.role == "leader"]
            assert len(leaders) == 1
            value = yield from client.get(b"k")
            return value

        assert run(sim, scenario()) == b"before"

    def test_no_commit_without_quorum(self):
        sim, fabric, cluster, client = make_cluster()

        def scenario():
            leader = yield from cluster.wait_until_serving(timeout_us=2 * SEC)
            for node in cluster.nodes:
                if node is not leader:
                    node.crash()
            before = leader.commit_index  # the election no-op is committed
            try:
                yield from KvClient(
                    fabric.add_host("c2", cores=2), fabric, cluster,
                    max_rounds=5, retry_backoff_us=2 * MS,
                ).put(b"k", b"must-not-commit")
            except Exception:
                return leader.commit_index - before
            return -1

        advanced = run(sim, scenario())
        assert advanced == 0  # nothing committed without a majority
