"""The fault matrix: {Sift, Raft-R, EPaxos} x fault kinds x seeds.

Every cell builds a fresh cluster, runs a small recorded KV workload,
injects one canonical fault pattern through
:class:`~repro.chaos.runner.ChaosRunner`, and demands

* safety — per-term leader uniqueness throughout, and a linearizable
  history (no-phantom-values for EPaxos, whose asynchronous commit
  announcements legitimately weaken crash durability), and
* eventual liveness — after the schedule ends the cluster serves again
  and every key reads back.

A :class:`~repro.chaos.runner.ChaosError` prints the seed and injection
trace, so any red cell reproduces from this file alone.
"""

from pathlib import Path

import pytest

from repro.chaos import ChaosRunner, FaultSchedule, LEADER, UnsupportedFault
from repro.sim.units import MS

SEEDS = (1, 2, 3)

# Message faults target the consensus traffic ("rdma" carries verbs and
# the baselines' replication messages); client RPCs are left alone so
# the recorded history reflects protocol behaviour, not lost requests.
CONSENSUS_STREAMS = ("rdma",)


def build_sift(fabric):
    from repro.core import SiftGroup
    from repro.kv import KvConfig, kv_app_factory

    kv_config = KvConfig(max_keys=256, wal_entries=128, watermark_interval=32)
    # Partitioned recovery (RAMCloud-style source->target pushes) is the
    # harder copy path, so the whole Sift column runs with it on: any
    # cell whose fault window overlaps a memory-node recovery exercises
    # the push channels, the trust gate, and the verify step.
    sift_config = kv_config.sift_config(
        fm=1,
        fc=1,
        wal_entries=128,
        memnode_poll_interval_us=30 * MS,
        recovery_partitions=4,
    )
    group = SiftGroup(
        fabric, sift_config, name="s", app_factory=kv_app_factory(kv_config)
    )
    group.start()
    return group


def build_raft(fabric):
    from repro.baselines.raft import RaftCluster, RaftConfig

    cluster = RaftCluster(fabric, RaftConfig(f=1), name="raft")
    cluster.start()
    return cluster


def build_epaxos(fabric):
    from repro.baselines.epaxos import EPaxosCluster, EPaxosConfig

    cluster = EPaxosCluster(fabric, EPaxosConfig(f=1), name="epaxos")
    cluster.start()
    return cluster


def build_sharded(fabric):
    from repro.kv import KvConfig
    from repro.shard import ShardedKvService

    kv_config = KvConfig(max_keys=256, wal_entries=128, watermark_interval=32)
    service = ShardedKvService(
        fabric,
        shards=2,
        backups=2,
        kv_config=kv_config,
        provisioning_delay_us=100 * MS,
    )
    service.start()
    return service


SYSTEMS = {
    "sift": build_sift,
    "raft": build_raft,
    "epaxos": build_epaxos,
}


def leader_crash():
    return FaultSchedule().crash_leader(200 * MS).restart_crashed(700 * MS)


def follower_crash():
    return FaultSchedule().crash_follower(200 * MS).restart_crashed(600 * MS)


def partition_symmetric():
    return FaultSchedule().partition(200 * MS, (LEADER,)).heal(700 * MS)


def partition_asymmetric():
    # One-way cut: the leader's outgoing traffic is dropped while it
    # still hears the world — the lease/fencing stress case (§3.2).
    return FaultSchedule().partition_oneway(200 * MS, LEADER).heal(700 * MS)


def message_duplication():
    return (
        FaultSchedule()
        .duplicate_messages(200 * MS, 0.2, CONSENSUS_STREAMS)
        .clear_message_faults(800 * MS)
    )


def source_crash_during_recovery():
    # A memory node fails and rejoins; while its image is being copied
    # back, another replica (a push source under partitioned recovery)
    # fails mid-fragment too.  The copy attempt must abort cleanly and a
    # later poll must still converge every node to INITIALISED.
    return (
        FaultSchedule()
        .crash_memory_node(200 * MS, 2)
        .restart_memory_node(320 * MS, 2)
        .crash_memory_node(350 * MS, 0)
        .restart_memory_node(600 * MS, 0)
    )


def failover_during_recovery():
    # The coordinator dies while a rejoining memory node is mid-copy:
    # the successor's exclusive re-attach fences any stale pushers, log
    # recovery re-derives membership, and the recovery restarts from
    # scratch under the new coordinator.
    return (
        FaultSchedule()
        .crash_memory_node(200 * MS, 2)
        .restart_memory_node(320 * MS, 2)
        .crash_leader(350 * MS)
        .restart_crashed(750 * MS)
    )


FAULTS = {
    "leader-crash": leader_crash,
    "follower-crash": follower_crash,
    "partition-sym": partition_symmetric,
    "partition-asym": partition_asymmetric,
    "duplication": message_duplication,
    "recovery-source-crash": source_crash_during_recovery,
    "recovery-failover": failover_during_recovery,
}


def _start_split(cluster):
    # Probe hook: kick off a live split of the first shard while the
    # recorded workload keeps running.  The manager rides the sim as a
    # background process; the schedule then kills the split's source
    # coordinator mid-flight.
    from repro.control import MigrationManager

    manager = MigrationManager.split(
        cluster.fabric,
        cluster,
        cluster.ring.shards[0],
        forward_window_us=50 * MS,
        scan_page_buckets=16,
    )
    cluster.fabric.sim.spawn(manager.run(), name="chaos-migration")


def migration_coordinator_crash():
    # A split starts mid-schedule and its source coordinator dies while
    # the copy/forward machinery runs: the manager must restart or
    # re-install hooks on the promoted successor, and the history must
    # stay linearizable with every acked write surviving.
    return (
        FaultSchedule()
        .probe(250 * MS, _start_split, "start-split")
        .crash_coordinator(253 * MS, shard=None, ring_version=0)
    )


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"s{s}")
def test_migration_chaos_cell(seed):
    runner = ChaosRunner(build_sharded, migration_coordinator_crash(), seed=seed)
    result = runner.run()  # raises ChaosError on any invariant violation
    assert result.acked_puts > 0
    assert result.ops > result.acked_puts


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"s{s}")
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_matrix_cell(system, fault, seed):
    runner = ChaosRunner(SYSTEMS[system], FAULTS[fault](), seed=seed)
    try:
        result = runner.run()  # raises ChaosError on any invariant violation
    except UnsupportedFault as exc:
        pytest.skip(str(exc))  # e.g. EPaxos has no memory nodes to break

    # The workload must have made real progress through the fault...
    assert result.acked_puts > 0
    assert result.ops > result.acked_puts  # reads happened too
    # ...and leadership stayed sane where the notion exists.
    if system != "epaxos":
        assert result.leader_terms, "no leader ever observed"
        terms = [term for term, _name in result.leader_terms]
        assert len(terms) == len(set(terms)), "a term with two leaders"


@pytest.mark.parametrize("system", SYSTEMS)
def test_matrix_cell_is_deterministic(system):
    """Same seed, same cell => identical injection trace and history."""

    def one_run():
        runner = ChaosRunner(SYSTEMS[system], leader_crash(), seed=2)
        result = runner.run()
        ops = tuple(
            (op.key, op.kind, op.value, op.invoked_at, op.responded_at)
            for op in runner.history.ops
        )
        return result.fingerprint(), ops

    first, second = one_run(), one_run()
    assert first == second


def test_explorer_covers_memory_node_faults_and_shrinks():
    """Random schedules over the Sift space include memory-node crashes,
    and a failing schedule shrinks to its minimal reproducer."""
    from repro.chaos import ChaosSpace, random_schedule, shrink

    space = ChaosSpace(nodes=2, memory_nodes=3, horizon_us=900 * MS)
    kinds = set()
    for seed in range(40):
        for action in random_schedule(seed, space):
            kinds.add(action.kind)
    assert "crash_memory_node" in kinds, "the space never broke a memory node"

    # Shrinking a noisy schedule against a memory-node predicate strips
    # every unrelated action, leaving the one-line reproducer a red
    # recovery cell would print.
    noisy = (
        FaultSchedule()
        .drop_messages(10 * MS, 0.1)
        .crash_memory_node(200 * MS, 2)
        .crash_leader(250 * MS)
        .restart_memory_node(320 * MS, 2)
        .clear_message_faults(400 * MS)
        .restart_crashed(700 * MS)
    )
    minimal = shrink(
        noisy, lambda s: any(a.kind == "crash_memory_node" for a in s)
    )
    assert [a.kind for a in minimal] == ["crash_memory_node"]


def test_failing_cell_reports_replay_seed(postmortem_dir):
    """A violated invariant names the seed, the injected trace and a
    postmortem file that exists under the redirected directory."""
    from repro.chaos import ChaosError

    # Demand the impossible: both CPU nodes die and nothing restarts
    # them, so the post-schedule liveness check must fail.
    schedule = FaultSchedule().crash_node(100 * MS, 0).crash_node(100 * MS, 1)
    runner = ChaosRunner(
        build_sift, schedule, seed=5, settle_us=50 * MS, liveness_timeout_us=300 * MS
    )
    with pytest.raises(ChaosError) as excinfo:
        runner.run()
    message = str(excinfo.value)
    assert "seed=5" in message
    assert "crash_node" in message
    dumped = Path(message.split("postmortem: ", 1)[1].splitlines()[0])
    assert dumped.is_file()
    assert dumped.parent == postmortem_dir
