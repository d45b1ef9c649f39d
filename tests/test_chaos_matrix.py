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

from repro.bench.calibration import SMOKE_SCALE
from repro.bench.systems import sift_spec
from repro.chaos import (
    FOLLOWER,
    LEADER,
    ChaosError,
    ChaosRunner,
    ChaosSpace,
    FaultSchedule,
    ScheduleExplorer,
    UnsupportedFault,
    random_schedule,
)
from repro.core.replicated_memory import NodeState
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


# ---------------------------------------------------------------------------
# The explorer runs the paper's system
# ---------------------------------------------------------------------------

SIFT_SPACE = ChaosSpace(nodes=2, memory_nodes=3)
SIFT_BUILDS = {
    "matrix": build_sift,
    "spec": sift_spec(f=1, scale=SMOKE_SCALE).build,  # what every figure builds
}
EXPLORER_SEEDS = range(100, 124)
#: Why a generated schedule may stop short: a symbolic target names a
#: role nobody holds when its action fires (the explorer's skip).
EMPTY_ROLES = ("no live leader to target", "no live follower to target")


@pytest.mark.parametrize("seed", EXPLORER_SEEDS)
@pytest.mark.parametrize("build", SIFT_BUILDS)
def test_explorer_runs_sift(build, seed):
    """Every generated schedule ends as a pass, or stops at a symbolic
    target with nobody in the role; any ``ChaosError`` (a broken
    invariant, a dead protocol process) or raw exception fails."""
    runner = ChaosRunner(SIFT_BUILDS[build], random_schedule(seed, SIFT_SPACE), seed=seed)
    try:
        runner.run()
    except UnsupportedFault as exc:
        assert str(exc) in EMPTY_ROLES


#: The schedule each root cause of the explorer's old Sift findings
#: shrank to, as ``(build, seed, schedule)``; every one used to end in
#: a ``ChaosError``.
SIFT_REGRESSIONS = {
    # A dropped connect handshake parked the new coordinator in
    # QueuePair.connect forever while its heartbeats kept the lease.
    "connect-deadline": (
        "matrix", 113, FaultSchedule().drop_messages(507_703.32073668105, 0.05446847542818685)
    ),
    # A failed put left its uncommitted value readable in the cache.
    "dirty-read": (
        "matrix",
        123,
        FaultSchedule()
        .drop_messages(237_374.01635222632, 0.07692505873460977)
        .add(588_269.4720109495, "crash_node", FOLLOWER),
    ),
    # A kv-applier died of QuorumError instead of stepping down.
    "applier-steps-down": (
        "spec", 108, FaultSchedule().drop_messages(109_466.02162948583, 0.14453354067333357)
    ),
    # A waiter woken by a lock release released the same block first,
    # and the outer release died of KeyError deleting it again.
    "lock-release": (
        "spec", 138, FaultSchedule().drop_messages(261_039.97190128392, 0.11194316071473497)
    ),
}


@pytest.mark.parametrize("cause", SIFT_REGRESSIONS)
def test_shrunk_sift_finding_stays_fixed(cause):
    """The shrunk schedule now passes every check: the group serves
    again, every acked write reads back and the history is linearizable."""
    build, seed, schedule = SIFT_REGRESSIONS[cause]
    result = ChaosRunner(SIFT_BUILDS[build], schedule, seed=seed).run()
    assert result.acked_puts > 0 and result.leader_terms


#: ROADMAP item 12's open finding, at the figures' scale on Sift EC (seed
#: 142, shrunk): message loss gets a live memory node marked dead, and
#: node 0 crashes while that node's recovery copy still runs.  With one
#: trusted member left every new coordinator fails ``recover_log``: two
#: failures inside one copy window at f=1.
EC_COPY_WINDOW_DOUBLE_FAILURE = (
    FaultSchedule()
    .drop_messages(77_068.1840819614, 0.09293672660881085)
    .crash_memory_node(249_870.39224602873, 0)
)


def test_ec_double_failure_in_the_copy_window_is_an_open_liveness_finding():
    """Strict both ways: the day the group serves again, this fails and
    the finding comes off ROADMAP item 12 and CI's chaos-smoke comment."""
    runner = ChaosRunner(
        sift_spec(f=1, erasure_coding=True).build, EC_COPY_WINDOW_DOUBLE_FAILURE, seed=142
    )
    with pytest.raises(ChaosError, match="post-schedule liveness failed: group sift-ec has no serving"):
        runner.run()


def test_explorer_counts_and_prints_an_unresolvable_target(capsys):
    """Seed 102 isolates the leader 55 ms in, before the first election
    has a winner: a skip of that seed, not a failure of the explorer."""
    explorer = ScheduleExplorer(build_sift, SIFT_SPACE)
    assert explorer.explore([102, 104]) is None
    assert explorer.skipped == [(102, "no live leader to target")]
    assert "CHAOS-EXPLORER-SKIP seed=102" in capsys.readouterr().err


def build_buggy_sift(fabric):
    """:func:`build_sift` whose app carries a bug, not a modelled failure:
    one app process raises a plain ``RuntimeError`` once its coordinator
    has marked a memory node dead."""
    group = build_sift(fabric)

    def with_bug(factory):
        def buggy(cpu_node, repmem):
            def watch():
                while NodeState.DEAD not in repmem.states.values():
                    yield repmem.sim.timeout(MS)
                raise RuntimeError("bug: a dead memory node")

            cpu_node.host.spawn(watch(), name="buggy-watch")
            return factory(cpu_node, repmem)

        return buggy

    for node in group.cpu_nodes:
        node.app_factory = with_bug(node.app_factory)
    return group


def test_explorer_reports_and_shrinks_a_dead_protocol_process():
    """A protocol process that dies of a bug used to abort the run as a
    raw ``SimulationError``; it is a finding with a seed, a one-action
    reproducer and a postmortem."""
    failure = ScheduleExplorer(build_buggy_sift, SIFT_SPACE).run_seed(101)
    assert failure.error.startswith(
        "process died: s-cpu0:buggy-watch: RuntimeError('bug: a dead memory node')"
    )
    assert "replay: seed=101" in failure.error and "postmortem: " in failure.error
    assert [a.kind for a in failure.minimal] == ["crash_memory_node"]


def test_generator_targets_no_follower_beside_a_lone_survivor():
    """``ChaosSpace.nodes`` bounds the symbolic draws: with one of two
    consensus nodes down there is no follower left to isolate."""
    for seed in range(200):
        down = 0
        for action in random_schedule(seed, SIFT_SPACE):
            if action.kind == "restart_crashed":
                down = 0
            roles = [a for a in action.args if a in (LEADER, FOLLOWER)]
            roles += [a for arg in action.args if isinstance(arg, tuple) for a in arg]
            if FOLLOWER in roles:
                assert SIFT_SPACE.nodes - down >= 2, (seed, action)
            if action.kind == "crash_node":
                down += 1


def test_failed_app_start_is_a_step_down():
    """Explorer seed 113's first action, cleared at 600 ms.  Under 5%
    message loss s-cpu0 wins term 2 and a verb times out while the KV
    app loads its structures: the node must step down and follow again
    (it used to die, and ``Simulator.run`` aborted the run), and the
    group must serve under a later term."""
    seen = {}

    def look(group):
        seen["cpu0"] = group.cpu_nodes[0]
        seen["serving"] = group.is_serving()

    schedule = (
        FaultSchedule()
        .drop_messages(507_703, 0.05446847542818685)
        .clear_message_faults(600 * MS)
        .probe(1_500 * MS, look, "look")
    )
    result = ChaosRunner(build_sift, schedule, seed=113).run()
    cpu0 = seen["cpu0"]
    assert (2, "s-cpu0") in result.leader_terms and result.leader_terms[-1][0] > 2
    assert cpu0.role.value == "follower" and cpu0._main_proc.alive
    assert cpu0.stats["elections_won"] == cpu0.stats["stepdowns"] == 1
    assert seen["serving"]
