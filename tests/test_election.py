"""Coordinator election tests (§3.2): safety and liveness scenarios."""


from repro.core import Role, rules
from repro.core.membership import RESERVED_BYTES
from repro.net import PartitionController
from repro.sim import MS, SEC
from repro.storage.admin import AdminWord
from tests.testing import make_group

BASE = RESERVED_BYTES


def count_coordinators(group):
    return sum(1 for node in group.cpu_nodes if node.is_coordinator)


class TestBasicElection:
    def test_exactly_one_coordinator_elected(self):
        sim, _fabric, group = make_group()
        sim.run(until=500 * MS)
        assert count_coordinators(group) == 1

    def test_election_within_timeout_budget(self):
        sim, _fabric, group = make_group()
        deadline = 10 * group.config.election_timeout_us
        while group.serving_coordinator() is None and sim.now < deadline:
            sim.run(until=sim.now + 1 * MS)
        assert group.serving_coordinator() is not None

    def test_coordinator_has_highest_term(self):
        sim, _fabric, group = make_group()
        sim.run(until=500 * MS)
        coordinator = group.coordinator()
        assert coordinator.term >= 1

    def test_many_cpu_nodes_still_one_winner(self):
        sim, _fabric, group = make_group(fc=4)  # 5 candidates
        sim.run(until=1 * SEC)
        assert count_coordinators(group) == 1

    def test_stats_track_elections(self):
        sim, _fabric, group = make_group()
        sim.run(until=500 * MS)
        total_won = sum(node.stats["elections_won"] for node in group.cpu_nodes)
        assert total_won == 1


class TestFailover:
    def test_backup_takes_over(self):
        sim, _fabric, group = make_group()
        sim.run(until=300 * MS)
        first = group.coordinator()
        first.crash()
        sim.run(until=sim.now + 1 * SEC)
        second = group.coordinator()
        assert second is not None and second is not first
        assert second.term > first.term

    def test_detection_time_tracks_heartbeat_budget(self):
        """§6.5: ~3 missed heartbeats at 7ms reads => ~21ms detection."""
        sim, _fabric, group = make_group()
        sim.run(until=300 * MS)
        group.coordinator().crash()
        crash_time = sim.now
        while count_coordinators(group) == 0 and sim.now < crash_time + 1 * SEC:
            sim.run(until=sim.now + 1 * MS)
        detection_and_election = sim.now - crash_time
        budget = group.config.election_timeout_us
        assert detection_and_election >= budget * 0.5
        assert detection_and_election <= budget * 5

    def test_restarted_coordinator_becomes_follower(self):
        sim, _fabric, group = make_group()
        sim.run(until=300 * MS)
        first = group.coordinator()
        first.crash()
        sim.run(until=sim.now + 500 * MS)
        first.restart()
        sim.run(until=sim.now + 500 * MS)
        assert count_coordinators(group) == 1
        assert first.role is not Role.COORDINATOR

    def test_repeated_failovers(self):
        sim, _fabric, group = make_group(fc=2)
        sim.run(until=300 * MS)
        seen_terms = []
        for _round in range(3):
            coordinator = group.coordinator()
            assert coordinator is not None
            seen_terms.append(coordinator.term)
            coordinator.crash()
            sim.run(until=sim.now + 800 * MS)
            coordinator.restart()
        assert seen_terms == sorted(seen_terms)
        sim.run(until=sim.now + 500 * MS)
        assert count_coordinators(group) == 1


class TestSafetyUnderPartition:
    def test_partitioned_coordinator_steps_down(self):
        """A coordinator cut off from all memory nodes must not stay leader."""
        sim, fabric, group = make_group()
        sim.run(until=300 * MS)
        first = group.coordinator()
        controller = PartitionController(fabric)
        controller.isolate(first.host.name)
        sim.run(until=sim.now + 1 * SEC)
        # The survivor side elected a new coordinator...
        others = [n for n in group.cpu_nodes if n is not first]
        assert any(node.is_coordinator for node in others)
        # ...and the isolated one noticed it cannot renew its lease.
        assert not first.is_coordinator

    def test_no_two_coordinators_after_heal(self):
        sim, fabric, group = make_group()
        sim.run(until=300 * MS)
        first = group.coordinator()
        controller = PartitionController(fabric)
        controller.isolate(first.host.name)
        sim.run(until=sim.now + 500 * MS)
        controller.heal()
        sim.run(until=sim.now + 500 * MS)
        assert count_coordinators(group) <= 1

    def test_stale_coordinator_cannot_write_after_takeover(self):
        """At-most-one-connection fencing (§3.2): the deposed coordinator's
        replicated-memory writes fail once the successor connects."""
        sim, fabric, group = make_group()
        sim.run(until=300 * MS)
        first = group.coordinator()
        repmem = first.repmem

        def scenario():
            yield from repmem.write(BASE, b"before")
            controller = PartitionController(fabric)
            controller.isolate(first.host.name)
            # Wait for a successor, then heal so the stale node CAN reach
            # the memory nodes again — its connection must still be dead.
            yield sim.timeout(1 * SEC)
            controller.heal()
            yield sim.timeout(50 * MS)
            try:
                yield from repmem.write(BASE, b"stale!")
            except Exception as exc:
                return type(exc).__name__
            return "accepted"

        process = sim.spawn(scenario())
        sim.run_until_settled(process, deadline=10 * SEC)
        assert process.ok
        # Either the write was rejected, or this repmem was already torn
        # down (deposed) — it must never be silently "accepted".
        assert process.value in ("Deposed", "GroupUnavailable", "QuorumError")

    def test_unanswered_round_keeps_its_term(self):
        """A round fewer than a quorum of admin words answered was no
        contest: retry it at the same term, not the next one."""
        lagging = AdminWord(1, 1, 7)
        assert rules.campaign_verdict(5, 0, [], 2) == rules.UNANSWERED
        assert rules.campaign_verdict(5, 1, [], 2) == rules.UNANSWERED
        assert rules.campaign_verdict(5, 1, [lagging], 2) == rules.RETRY
        assert rules.campaign_verdict(5, 0, [lagging, lagging], 2) == rules.RETRY

    def test_cut_off_candidate_does_not_inflate_its_term(self):
        """A CPU node cut off from every memory node used to bump its term
        once per back-off (~475 a second), toward the admin word's 16-bit
        term overflow; unanswered rounds now retry at the same term."""
        sim, fabric, group = make_group()
        sim.run(until=300 * MS)
        follower = next(node for node in group.cpu_nodes if not node.is_coordinator)
        newest = group.coordinator().term  # the follower has read it in the admin words
        controller = PartitionController(fabric)
        controller.split([follower.host.name], [node.name for node in group.memory_nodes])
        sim.run(until=sim.now + 1 * SEC)
        assert follower.role is Role.CANDIDATE
        assert follower.term == newest + 1  # one campaign's first round, then no more

    def test_minority_cpu_partition_makes_no_progress(self):
        """With a majority of memory nodes unreachable, nobody leads."""
        sim, fabric, group = make_group()
        controller = PartitionController(fabric)
        # Cut every CPU node off from two of the three memory nodes.
        cpu_names = [node.host.name for node in group.cpu_nodes]
        controller.split(cpu_names, [group.memory_nodes[1].name, group.memory_nodes[2].name])
        sim.run(until=1 * SEC)
        assert count_coordinators(group) == 0


class TestLeaseSemantics:
    def test_heartbeats_keep_coordinator_stable(self):
        sim, _fabric, group = make_group()
        sim.run(until=300 * MS)
        first = group.coordinator()
        first_term = first.term
        sim.run(until=sim.now + 2 * SEC)
        assert group.coordinator() is first
        assert first.term == first_term

    def test_memory_node_restart_does_not_depose(self):
        """Losing one admin word must not cost the lease (majority rule)."""
        sim, _fabric, group = make_group()
        sim.run(until=300 * MS)
        first = group.coordinator()
        group.crash_memory_node(2)
        sim.run(until=sim.now + 200 * MS)
        group.restart_memory_node(2)
        sim.run(until=sim.now + 500 * MS)
        assert group.coordinator() is first
