"""Election edge cases the happy-path suites never hit.

Raft's safety argument lives in its corner cases: simultaneous
candidacies that split the vote, stale-term ghosts returning after a
crash-restart, and candidates that must yield to a higher term
mid-election.  Sift delegates the equivalent races to memory-node CAS
words; its simultaneous-campaign case rides along here for symmetry.
"""


from repro.baselines.raft import RaftCluster, RaftConfig, _AppendEntries, _RequestVote
from repro.sim import MS, SEC
from tests.testing import make_group, make_sim


def make_raft(seed=0, f=1):
    sim, fabric = make_sim(seed)
    cluster = RaftCluster(fabric, RaftConfig(f=f), name="raft")
    cluster.start()
    sim.run(until=200 * MS)
    assert cluster.leader_node() is not None
    return sim, cluster


def leaders_of(cluster):
    return [n for n in cluster.nodes if n.role == "leader" and n.host.alive]


class TestSplitVote:
    def test_exact_tie_stalls_the_term_then_converges(self):
        sim, cluster = make_raft(seed=21)
        leader = cluster.leader_node()
        survivors = [n for n in cluster.nodes if n is not leader]
        leader.crash()

        # Both survivors' timeouts fire at the same instant: each votes
        # for itself in the same term and must deny the other.
        for node in survivors:
            node._start_election()
        tie_term = survivors[0].term
        assert survivors[1].term == tie_term

        # Let the crossed vote requests land (well inside the 12ms
        # minimum election timeout, so no new term starts yet).
        sim.run(until=sim.now + 5 * MS)
        assert leaders_of(cluster) == [], "a split vote must not elect"
        assert all(node.voted_for == node.index for node in survivors)

        # The randomized back-off breaks the tie in a *later* term.
        sim.run(until=sim.now + 1 * SEC)
        winners = leaders_of(cluster)
        assert len(winners) == 1
        assert winners[0].term > tie_term

    def test_simultaneous_sift_campaigns_elect_exactly_one(self):
        """Sift's version of the race: all CPU nodes campaign from t=0
        and the admin-word CAS arbitrates (§3.2) — never two winners."""
        sim, _fabric, group = make_group(fc=3, seed=21)  # 4 simultaneous candidates
        sim.run(until=1 * SEC)
        winners = [n for n in group.cpu_nodes if n.is_coordinator]
        assert len(winners) == 1
        total_won = sum(n.stats["elections_won"] for n in group.cpu_nodes)
        assert total_won == 1


class TestStaleTermAfterRestart:
    def test_restarted_node_cannot_win_with_a_stale_term(self):
        sim, cluster = make_raft(seed=22)
        leader = cluster.leader_node()
        ghost = next(n for n in cluster.nodes if n is not leader)
        ghost.crash()
        sim.run(until=sim.now + 100 * MS)

        # Commit something while the ghost is away so its log is behind.
        from repro.kv.client import KvClient

        client = KvClient(
            cluster.fabric.add_host("edge-client", cores=2), cluster.fabric, cluster
        )
        process = sim.spawn(client.put(b"k", b"v"))
        sim.run_until_settled(process, deadline=sim.now + 1 * SEC)
        assert process.ok

        ghost.restart()
        assert ghost.term == 0  # soft state gone: this is the stale ghost
        ghost._start_election()  # its request carries term 1, log empty
        sim.run(until=sim.now + 200 * MS)

        # Nobody may have granted it: its term is behind and so is its log.
        assert ghost.role != "leader"
        assert cluster.leader_node() is leader
        # The denial replies carry the real term; the ghost adopted it.
        assert ghost.term >= leader.term
        assert ghost.role == "follower"

    def test_stale_term_vote_request_is_denied_without_disturbing_state(self):
        sim, cluster = make_raft(seed=23)
        leader = cluster.leader_node()
        follower = next(n for n in cluster.nodes if n is not leader)
        term_before = follower.term
        voted_before = follower.voted_for

        stale = _RequestVote(term=term_before - 1, candidate=2, last_index=99, last_term=9)
        follower._on_request_vote(stale)
        sim.run(until=sim.now + 50 * MS)

        assert follower.term == term_before
        assert follower.voted_for == voted_before
        assert cluster.leader_node() is leader


class TestHigherTermDuringCandidacy:
    def test_candidate_steps_down_on_higher_term_heartbeat(self):
        sim, cluster = make_raft(seed=24)
        leader = cluster.leader_node()
        candidate = next(n for n in cluster.nodes if n is not leader)
        candidate._start_election()
        assert candidate.role == "candidate"
        mid_election_term = candidate.term

        heartbeat = _AppendEntries(
            term=mid_election_term + 1,
            leader=leader.index,
            prev_index=0,
            prev_term=0,
            entries=(),
            commit=0,
        )
        process = candidate.host.spawn(candidate._on_append(heartbeat))
        sim.run_until_settled(process, deadline=sim.now + 100 * MS)

        assert candidate.role == "follower"
        assert candidate.term == mid_election_term + 1
        assert candidate.leader_hint == leader.index

    def test_candidate_ignores_equal_term_vote_but_accepts_append(self):
        """An AppendEntries at the candidate's own term means a peer won
        that term: the candidate must fall back to follower (§5.2 of the
        Raft paper)."""
        sim, cluster = make_raft(seed=25)
        leader = cluster.leader_node()
        candidate = next(n for n in cluster.nodes if n is not leader)
        candidate._start_election()
        same_term = candidate.term

        heartbeat = _AppendEntries(
            term=same_term,
            leader=leader.index,
            prev_index=0,
            prev_term=0,
            entries=(),
            commit=0,
        )
        process = candidate.host.spawn(candidate._on_append(heartbeat))
        sim.run_until_settled(process, deadline=sim.now + 100 * MS)
        assert candidate.role == "follower"
