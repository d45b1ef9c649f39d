"""Unit tests for the chaos layer: schedules, interceptors, devices,
symbolic targeting, and the random explorer."""

import pytest

from repro.chaos import (
    ChaosController,
    ChaosSpace,
    FaultSchedule,
    FOLLOWER,
    LEADER,
    MessageChaos,
    ScheduleExplorer,
    UnsupportedFault,
    random_schedule,
    shrink,
)
from repro.net.fabric import Verdict
from repro.net.latency import FixedLatency
from repro.rdma.errors import RdmaTimeout
from repro.rdma.nic import Rnic
from repro.sim import MS, SEC
from tests.testing import make_sim


class TestFaultSchedule:
    def test_actions_sort_by_time_with_stable_ties(self):
        schedule = (
            FaultSchedule()
            .heal(300 * MS)
            .crash_leader(100 * MS)
            .crash_memory_node(100 * MS, 2)
        )
        kinds = [a.kind for a in schedule.sorted_actions()]
        assert kinds == ["crash_node", "crash_memory_node", "heal"]

    def test_duration_and_length(self):
        schedule = FaultSchedule().crash_leader(50 * MS).heal(400 * MS)
        assert schedule.duration_us == 400 * MS
        assert len(schedule) == 2

    def test_signature_is_stable_and_hashable(self):
        def build():
            return FaultSchedule().crash_leader(10.0).drop_messages(20.0, 0.5)

        assert build().signature() == build().signature()
        hash(build().signature())

    def test_probe_signature_uses_label_not_callable(self):
        first = FaultSchedule().probe(10.0, lambda g: None, label="watch")
        second = FaultSchedule().probe(10.0, lambda g: None, label="watch")
        assert first.signature() == second.signature()

    def test_without_removes_one_action(self):
        schedule = FaultSchedule().crash_leader(10.0).heal(20.0)
        shrunk = schedule.without(1)
        assert [a.kind for a in shrunk] == ["crash_node"]
        assert len(schedule) == 2  # original untouched


class _Probe:
    """Counts arrivals of messages sent through a fabric."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.src = fabric.add_host("src")
        self.dst = fabric.add_host("dst")
        self.arrivals = []

    def send(self, stream="net"):
        self.fabric.deliver(
            self.src,
            self.dst,
            100,
            lambda: self.arrivals.append(self.fabric.sim.now),
            latency=FixedLatency(5.0),
            stream=stream,
        )


class TestFabricInterception:
    def test_no_interceptor_means_no_change(self):
        sim, fabric = make_sim(seed=9)
        probe = _Probe(fabric)
        probe.send()
        sim.run(until=1 * MS)
        assert len(probe.arrivals) == 1
        assert fabric.messages_dropped == 0

    def test_drop_verdict_loses_the_message(self):
        sim, fabric = make_sim(seed=9)
        probe = _Probe(fabric)
        fabric.add_interceptor(lambda s, d, n, st: Verdict(drop=True))
        probe.send()
        sim.run(until=1 * MS)
        assert probe.arrivals == []
        assert fabric.messages_dropped == 1

    def test_delay_verdict_postpones_arrival(self):
        sim, fabric = make_sim(seed=9)
        probe = _Probe(fabric)
        fabric.add_interceptor(lambda s, d, n, st: Verdict(extra_delay_us=500.0))
        probe.send()
        sim.run(until=1 * MS)
        assert probe.arrivals == [505.0]

    def test_duplicate_verdict_delivers_twice(self):
        sim, fabric = make_sim(seed=9)
        probe = _Probe(fabric)
        fabric.add_interceptor(lambda s, d, n, st: Verdict(duplicates=1))
        probe.send()
        sim.run(until=1 * MS)
        assert len(probe.arrivals) == 2
        assert fabric.messages_duplicated == 1

    def test_remove_interceptor_restores_clean_path(self):
        sim, fabric = make_sim(seed=9)
        probe = _Probe(fabric)
        interceptor = fabric.add_interceptor(lambda s, d, n, st: Verdict(drop=True))
        fabric.remove_interceptor(interceptor)
        probe.send()
        sim.run(until=1 * MS)
        assert len(probe.arrivals) == 1

    def test_oneway_block_cuts_exactly_one_direction(self):
        sim, fabric = make_sim(seed=9)
        probe = _Probe(fabric)
        fabric.block_oneway("src", "dst")
        assert not fabric.reachable("src", "dst")
        assert fabric.reachable("dst", "src")
        probe.send()
        sim.run(until=1 * MS)
        assert probe.arrivals == []
        fabric.unblock_oneway("src", "dst")
        probe.send()
        sim.run(until=sim.now + 1 * MS)
        assert len(probe.arrivals) == 1


class TestMessageChaos:
    def test_idle_chaos_is_not_installed(self):
        _sim, fabric = make_sim(seed=4)
        chaos = MessageChaos(fabric)
        assert fabric._interceptors == []
        chaos.set_drop(0.5)
        assert fabric._interceptors == [chaos]
        chaos.clear()
        assert fabric._interceptors == []

    def test_stream_filter_spares_other_streams(self):
        sim, fabric = make_sim(seed=4)
        probe = _Probe(fabric)
        chaos = MessageChaos(fabric)
        chaos.set_drop(1.0, streams=("rdma",))
        probe.send(stream="net")
        sim.run(until=1 * MS)
        assert len(probe.arrivals) == 1
        probe.send(stream="rdma")
        sim.run(until=sim.now + 1 * MS)
        assert len(probe.arrivals) == 1  # the rdma one was dropped

    def test_same_seed_same_decisions(self):
        def run_once():
            sim, fabric = make_sim(seed=11)
            probe = _Probe(fabric)
            chaos = MessageChaos(fabric)
            chaos.set_drop(0.5)
            for _ in range(40):
                probe.send()
            sim.run(until=1 * MS)
            return len(probe.arrivals)

        first, second = run_once(), run_once()
        assert first == second
        assert 0 < first < 40  # some dropped, some delivered


class TestNicFaults:
    def _pair(self):
        sim, fabric = make_sim(seed=3)
        a = fabric.add_host("a")
        b = fabric.add_host("b")
        nic_a = Rnic(a, fabric)
        Rnic(b, fabric)
        return sim, nic_a, b

    def test_failed_nic_times_out_verbs(self):
        sim, nic, target = self._pair()
        nic.fail_queues()
        done = nic.transfer(target, 64, 64, lambda: "ok", timeout_us=500.0)
        sim.run(until=1 * MS)
        assert done.settled and done.failed
        assert isinstance(done.exception, RdmaTimeout)

    def test_restored_nic_flows_again(self):
        sim, nic, target = self._pair()
        nic.fail_queues()
        nic.restore_queues()
        done = nic.transfer(target, 64, 64, lambda: "ok", timeout_us=500.0)
        sim.run(until=1 * MS)
        assert done.settled and done.ok
        assert done.value == "ok"


class TestControllerTargeting:
    def _raft(self):
        from repro.baselines.raft import RaftCluster, RaftConfig

        sim, fabric = make_sim(seed=6)
        cluster = RaftCluster(fabric, RaftConfig(f=1), name="raft")
        cluster.start()
        sim.run(until=200 * MS)
        return sim, cluster

    def test_symbolic_leader_resolves_at_injection_time(self):
        sim, cluster = self._raft()
        leader = cluster.leader_node()
        assert leader is not None
        controller = ChaosController(cluster)
        controller.apply(FaultSchedule().crash_leader(0).sorted_actions()[0])
        assert not leader.host.alive

    def test_follower_target_spares_the_leader(self):
        sim, cluster = self._raft()
        leader = cluster.leader_node()
        controller = ChaosController(cluster)
        controller.apply(FaultSchedule().crash_follower(0).sorted_actions()[0])
        assert leader.host.alive
        assert sum(1 for n in cluster.nodes if not n.host.alive) == 1

    def _epaxos(self):
        from repro.baselines.epaxos import EPaxosCluster, EPaxosConfig

        sim, fabric = make_sim(seed=6)
        cluster = EPaxosCluster(fabric, EPaxosConfig(f=1))
        cluster.start()
        return sim, cluster

    def test_memory_node_fault_unsupported_on_raft(self):
        _sim, cluster = self._raft()
        controller = ChaosController(cluster)
        action = FaultSchedule().crash_memory_node(0, 1).sorted_actions()[0]
        with pytest.raises(UnsupportedFault, match="raft has no memory nodes"):
            controller.apply(action)

    @pytest.mark.parametrize("kind", ["crash_memory_node", "restart_memory_node"])
    def test_memory_node_faults_unsupported_on_epaxos(self, kind):
        _sim, cluster = self._epaxos()
        controller = ChaosController(cluster)
        action = getattr(FaultSchedule(), kind)(0, 1).sorted_actions()[0]
        with pytest.raises(UnsupportedFault, match="epaxos has no memory nodes"):
            controller.apply(action)

    def test_controller_reads_the_system_protocol(self):
        """No adapter in between: the controller resolves targets on the
        cluster's own members, and a leaderless system has no LEADER."""
        _sim, cluster = self._epaxos()
        controller = ChaosController(cluster)
        assert controller.cluster is cluster and controller.fabric is cluster.fabric
        assert controller._node(1) is cluster.cpu_nodes[1]
        assert controller._node(LEADER) is cluster.leader_node()
        for replica in cluster.replicas:
            replica.crash()
        with pytest.raises(UnsupportedFault, match="no live leader"):
            controller._node(LEADER)
        with pytest.raises(AttributeError):
            ChaosController(object())

    def test_restart_crashed_restarts_cpu_nodes_before_memory_nodes(self):
        from tests.testing import make_group

        sim, _fabric, group = make_group(seed=4, fc=1)
        sim.run(until=200 * MS)
        order = []
        for node in (*group.cpu_nodes, *group.memory_nodes):
            node.crash()
            node.restart = lambda name=node.host.name: order.append(name)
        group.memory_nodes[1].host.restart()  # a live node is left alone
        ChaosController(group).apply(FaultSchedule().restart_crashed(0).sorted_actions()[0])
        assert order == ["e-cpu0", "e-cpu1", "e-mem0", "e-mem2"]

    def test_symbolic_targets_on_sharded_service_with_promoted_backup(self):
        """LEADER/FOLLOWER resolve on the flattened node list (shard
        order, promoted backups included): first live coordinator, then
        first other live node."""
        from repro.shard import ShardedKvService

        sim, fabric = make_sim(seed=7)
        service = ShardedKvService(
            fabric, shards=2, backups=1, provisioning_delay_us=1 * SEC
        )
        service.start()
        sim.run(until=300 * MS)
        controller = ChaosController(service)
        def targets():
            nodes = service.cpu_nodes
            return tuple(nodes.index(controller._node(t)) for t in (LEADER, FOLLOWER))

        assert targets() == (0, 1)
        service.crash_coordinator()  # shard0's only CPU node: the pool promotes
        sim.run(until=sim.now + 500 * MS)
        assert service.pool.promotions == 1 and all(service.coordinators().values())
        names = [node.host.name for node in service.cpu_nodes]
        assert names == ["shard0-cpu0", "shard-pool-0", "shard1-cpu0"]
        assert targets() == (1, 2)
        assert controller._other_side([]) == names + [
            f"shard{g}-mem{m}" for g in range(2) for m in range(3)
        ]
        # Before the promotion lands, the next shard's coordinator leads.
        service.cpu_nodes[1].crash()
        assert controller._node(LEADER) is service.cpu_nodes[2]
        with pytest.raises(UnsupportedFault, match="no live follower"):
            controller._node(FOLLOWER)


class TestSiftDeviceFaults:
    """NIC failure and CPU stall applied to a live Sift group end-to-end."""

    def test_coordinator_nic_failure_forces_failover(self):
        from tests.testing import make_group

        sim, fabric, group = make_group(seed=8)
        sim.run(until=300 * MS)
        first = group.coordinator()
        controller = ChaosController(group)
        controller.apply(FaultSchedule().fail_nic(0, LEADER).sorted_actions()[0])
        sim.run(until=sim.now + 1 * SEC)
        # The NIC-dead coordinator cannot renew its lease: someone else
        # (with a working NIC) must take over, and it must step down.
        current = group.coordinator()
        assert current is not None and current is not first
        assert not first.is_coordinator

    def test_cpu_stall_delays_but_does_not_depose(self):
        from tests.testing import make_group

        sim, fabric, group = make_group(seed=8)
        sim.run(until=300 * MS)
        first = group.coordinator()
        controller = ChaosController(group)
        controller.apply(
            FaultSchedule().stall_cpu(0, LEADER, 5 * MS, cores=1).sorted_actions()[0]
        )
        sim.run(until=sim.now + 1 * SEC)
        # A 5ms single-core stall is well inside the lease budget.
        assert group.coordinator() is first


class TestExplorer:
    def _space(self):
        return ChaosSpace(nodes=3, horizon_us=900 * MS)

    def test_same_seed_same_schedule(self):
        space = self._space()
        assert random_schedule(42, space).signature() == random_schedule(42, space).signature()

    def test_different_seeds_differ(self):
        space = self._space()
        signatures = {random_schedule(seed, space).signature() for seed in range(12)}
        assert len(signatures) > 1

    def test_generated_schedules_end_recovered(self):
        space = self._space()
        for seed in range(12):
            schedule = random_schedule(seed, space)
            kinds = [a.kind for a in schedule]
            if any(k == "crash_node" for k in kinds):
                assert "restart_crashed" in kinds
            if any(k in ("partition", "partition_oneway", "isolate") for k in kinds):
                assert "heal" in kinds

    def test_shrink_finds_minimal_reproducer(self):
        schedule = (
            FaultSchedule()
            .drop_messages(10 * MS, 0.1)
            .crash_leader(20 * MS)
            .heal(30 * MS)
            .clear_message_faults(40 * MS)
            .restart_crashed(50 * MS)
        )
        minimal = shrink(
            schedule, lambda s: any(a.kind == "crash_node" for a in s)
        )
        assert [a.kind for a in minimal] == ["crash_node"]

    def test_shrink_keeps_failing_schedule_when_nothing_removable(self):
        schedule = FaultSchedule().crash_leader(10 * MS)
        minimal = shrink(schedule, lambda s: len(s) == 1)
        assert minimal.signature() == schedule.signature()

    def test_explorer_runs_clean_seeds_without_failure(self):
        from repro.baselines.raft import RaftCluster, RaftConfig

        def build_raft(fabric):
            cluster = RaftCluster(fabric, RaftConfig(f=1), name="raft")
            cluster.start()
            return cluster

        explorer = ScheduleExplorer(
            build_raft, self._space(), runner_kwargs=dict(clients=2, keys_per_client=2)
        )
        assert explorer.explore(range(7, 9)) is None
