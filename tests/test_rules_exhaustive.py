"""Explicit-state check of the rules Sift's safety rests on, with no simulator.

Two small models run every interleaving of their actions and ask
:mod:`repro.core.rules` for every decision, the way "Specification and
Runtime Checking of Derecho" checks an executable spec rather than the
harness around it; "The Impact of RDMA on Agreement" names the races.
The models' physics:

* **CAS atomicity.**  A CAS on an admin word is one step: it writes its
  claim only if the word equals the expected value, and returns what the
  word held.
* **Message loss.**  A CAS request may be lost (no effect, the sender
  sees an error) and so may its reply (the CAS took effect, the sender
  still sees an error).  A WAL write may never arrive.  A message that is
  not lost arrives within a round trip, sooner than the shortest
  election back-off.
* **Revocation on connect.**  A coordinator that connects to a memory
  node's replicated region revokes its predecessor there, so the old
  coordinator's writes still in flight to that node are lost.

Each scenario asserts its exact number of distinct states, so a rule
change that shrinks the explored space fails loudly instead of passing
on a smaller model.
"""

from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from repro.core import rules
from repro.storage.admin import AdminWord
from repro.storage.wal import WalEntry

QUORUM = 2
NODES = (0, 1, 2)  # three memory nodes, one admin word each
MAJORITIES = ((0, 1), (0, 2), (1, 2), (0, 1, 2))


def explore(initial, successors, check=None):
    """Depth-first search over every state reachable from *initial*.

    *successors* raises on a violated step property; *check*, if given,
    judges every state.  Returns the set of distinct states.
    """
    seen = set(initial)
    stack = list(initial)
    while stack:
        state = stack.pop()
        if check is not None:
            check(state)
        for successor in successors(state):
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


def replace_at(items, index, value):
    return items[:index] + (value,) + items[index + 1 :]


# ---------------------------------------------------------------------------
# (a) Same-microsecond campaign: two candidates race the old coordinator's
#     heartbeat over the three admin words.
# ---------------------------------------------------------------------------

PENDING, CLAIMED, ERROR = None, "claimed", "error"
RENEWED, DEPOSED = "renewed", "deposed"
COORDINATOR = 0
LEASE = AdminWord(1, 1, 7)  # the old coordinator's claim on every word


class Actor(NamedTuple):
    """One CPU node in a CAS round: the old coordinator's heartbeat, or a
    candidate's campaign with *retries* more rounds allowed."""

    node: int
    term: int
    timestamp: int
    retries: int
    verdict: Optional[str]  # set once the node is done
    last: Optional[Tuple[AdminWord, ...]]  # word last seen per node: the round's expected
    replies: Tuple = ()  # per settled node: CLAIMED, ERROR, or the word a failed CAS returned

    @property
    def claim(self):
        return AdminWord(self.term, self.node, self.timestamp)


def campaign_start():
    """Both candidates read the old lease on every word and campaign in the
    same microsecond, so they claim the same term; the old coordinator's
    heartbeat is in flight beside them."""
    lease = (LEASE,) * len(NODES)
    term = rules.next_term(0, lease)
    heartbeat = Actor(1, 1, LEASE.timestamp + 1, 0, None, lease)
    candidates = tuple(Actor(node, term, 1, 1, None, lease) for node in (2, 3))
    return lease, (heartbeat,) + candidates, 0


def cas_steps(state, cases):
    """One admin word's next step: any in-flight CAS ``(expected, claim)``
    executes atomically, its request lost, its reply lost or delivered."""
    word, replies = state
    for k, (expected, claim) in enumerate(cases):
        if replies[k] is not PENDING:
            continue
        if word == expected:
            assert claim.term_id >= word.term_id, f"a word went back: {word} -> {claim}"
            executed, reply = claim, CLAIMED
        else:
            executed, reply = word, word
        for after, answer in ((word, ERROR), (executed, ERROR), (executed, reply)):
            yield after, replace_at(replies, k, answer)


@lru_cache(maxsize=None)
def decided(actor, index):
    """Apply the rules to a finished round, as ``CpuNode`` does."""
    seen = [reply for reply in actor.replies if isinstance(reply, AdminWord)]
    claimed = actor.replies.count(CLAIMED)
    last = tuple(
        actor.claim if reply == CLAIMED else reply if isinstance(reply, AdminWord) else before
        for reply, before in zip(actor.replies, actor.last)
    )
    if index == COORDINATOR:
        verdict = RENEWED if rules.lease_renewed(claimed, QUORUM) else DEPOSED
    else:
        verdict = rules.campaign_verdict(actor.term, claimed, seen, QUORUM)
    if verdict in (rules.RETRY, rules.UNANSWERED) and actor.retries:
        term = rules.next_term(actor.term, last) if verdict == rules.RETRY else actor.term
        return Actor(actor.node, term, actor.timestamp + 1, actor.retries - 1, None, last)
    return actor._replace(verdict=verdict, last=None, replies=())


def explore_campaign():
    """Scenario (a): ``(global states, per-word states, end states)``.

    CASes on different words commute, so the search settles one word at
    a time: each word's every arrival order and every loss is an explicit
    search of its own (remembered per start), and the global search takes
    every combination.  A round's verdicts follow once all three words
    have settled; a retry is the next round, after the back-off.
    """
    words_searched = {}

    def settle(word, cases):
        if (word, cases) not in words_searched:
            start = (word, (PENDING,) * len(cases))
            states = explore([start], lambda state: cas_steps(state, cases))
            settled = [state for state in states if PENDING not in state[1]]
            words_searched[word, cases] = (len(states), settled)
        return words_searched[word, cases][1]

    def successors(state):
        words, actors, n = state
        active = [i for i, actor in enumerate(actors) if actor.verdict is None]
        cases = tuple((actors[i].last[n], actors[i].claim) for i in active)
        for word, replies in settle(words[n], cases) if active else ():
            words_after, after = replace_at(words, n, word), list(actors)
            for i, reply in zip(active, replies):
                after[i] = after[i]._replace(replies=after[i].replies + (reply,))
                if n == len(NODES) - 1:
                    after[i] = decided(after[i], i)
                    if after[i].verdict in (rules.WON, RENEWED):
                        held = words_after.count(after[i].claim)
                        assert held >= QUORUM, f"{after[i]} holds {held} words: {words_after}"
            yield words_after, tuple(after), (n + 1) % len(NODES)

    states = explore([campaign_start()], successors)
    ends = [state for state in states if all(actor.verdict for actor in state[1])]
    return len(states), sum(count for count, _ in words_searched.values()), ends


def test_same_microsecond_campaign_elects_at_most_one_per_term():
    """At most one node holds a majority per term (the old coordinator
    held term 1 before the race, renewed or not), and a winner's or the
    renewed lease's claim sits on a majority when its round is judged."""
    states, word_states, ends = explore_campaign()
    for _words, actors, _ in ends:
        held = [LEASE.term_id] + [actor.term for actor in actors if actor.verdict == rules.WON]
        assert len(held) == len(set(held)), f"two holders of one term: {actors}"
    assert (states, word_states, len(ends)) == CAMPAIGN_STATES
    # Not vacuous: either candidate wins either term, an unanswered round
    # can win its term on the retry, the old coordinator can keep its
    # lease, and everyone can lose.
    assert any(
        actor.verdict == rules.WON and (actor.term, actor.timestamp) == (2, 2)
        for _, actors, _ in ends
        for actor in actors
    )
    outcomes = {tuple((actor.verdict, actor.term) for actor in actors) for _, actors, _ in ends}
    winners = {
        (i, term)
        for outcome in outcomes
        for i, (verdict, term) in enumerate(outcome)
        if verdict == rules.WON
    }
    assert winners == {(1, 2), (1, 3), (2, 2), (2, 3)}
    assert any(outcome[COORDINATOR] == (RENEWED, 1) for outcome in outcomes)
    assert ((DEPOSED, 1), (rules.LOST, 2), (rules.LOST, 2)) in outcomes


CAMPAIGN_STATES = (65_201, 606, 6_520)


# ---------------------------------------------------------------------------
# (b) Deposed coordinator vs. successor: term 1's in-flight appends race
#     term 2's fencing, merge, repair and one append; term 3 then recovers
#     from every majority.
# ---------------------------------------------------------------------------

T1_APPENDS = tuple(WalEntry(index, 64 * index, b"t1-%d" % index, 1) for index in (1, 2, 3))
SLOTS = len(T1_APPENDS) + 1  # term 2 appends at most one entry past them


class Failover(NamedTuple):
    logs: Tuple[Tuple[Optional[WalEntry], ...], ...]  # per node, one slot per log index
    in_flight: frozenset  # term 1's (append, node) writes that have not landed
    fence: Tuple[int, ...]  # term 2's recovery majority, in connect order
    fenced: int  # how many of them term 2 has connected to, revoking term 1
    recovered: Optional[Tuple[WalEntry, ...]]  # term 2's merged log, once recovered
    append: Optional[WalEntry]  # term 2's one append
    append_in_flight: frozenset  # nodes term 2's append has not reached


def failover_start(fence):
    writes = frozenset((index, n) for index in range(len(T1_APPENDS)) for n in NODES)
    empty = ((None,) * SLOTS,) * len(NODES)
    return Failover(empty, writes, fence, 0, None, None, frozenset())


def entries_of(log):
    return {entry.log_index: entry for entry in log if entry is not None}


def written(logs, n, entry):
    return replace_at(logs, n, replace_at(logs[n], entry.log_index - 1, entry))


def failover_successors(state):
    """A write that never lands is a lost one: every state is also the
    end of the run where everything still in flight is lost."""
    fenced = set(state.fence[: state.fenced])
    for index, n in state.in_flight:
        if n not in fenced:  # a revoked write is lost for good
            yield state._replace(
                logs=written(state.logs, n, T1_APPENDS[index]),
                in_flight=state.in_flight - {(index, n)},
            )
    if state.fenced < len(state.fence):
        connected = state._replace(fenced=state.fenced + 1)
        yield recovered(connected) if connected.fenced == len(state.fence) else connected
    for n in state.append_in_flight:
        yield state._replace(
            logs=written(state.logs, n, state.append),
            append_in_flight=state.append_in_flight - {n},
        )


def recovered(state):
    """Term 2's log recovery over its fenced majority, as ``recover_log``
    does it: merge, continue at the last merged index + 1, repair."""
    per_node = {n: entries_of(state.logs[n]) for n in sorted(state.fence)}
    merged = rules.merge_logs(per_node.values())
    next_index = merged[-1].log_index + 1 if merged else 1
    logs = state.logs
    for n, entry in rules.repairs(merged, per_node, set(state.fence)):
        logs = written(logs, n, entry)
    return state._replace(
        logs=logs,
        recovered=tuple(merged),
        append=WalEntry(next_index, 0, b"t2", 2),
        append_in_flight=frozenset(state.fence),
    )


def check_term_3(state):
    """Once term 2 has recovered, term 3 may recover from any majority,
    every write still in flight lost.  No entry acked on a majority (by
    term 1, by term 2's repair of its recovered log, or by term 2's
    append) may be missing or changed, and once term 2's append is acked
    nothing older may follow it."""
    if state.recovered is None:
        return
    durable = list(state.recovered) + [
        entry
        for index, entry in enumerate(T1_APPENDS)
        if len(NODES) - sum((index, n) in state.in_flight for n in NODES) >= QUORUM
    ]
    appended = len(state.fence) - len(state.append_in_flight) >= QUORUM
    if appended:
        durable.append(state.append)
    for majority in MAJORITIES:
        merged = rules.merge_logs(entries_of(state.logs[n]) for n in majority)
        by_index = {entry.log_index: entry for entry in merged}
        for entry in durable:
            assert by_index.get(entry.log_index) == entry, (majority, entry, merged, state)
        if appended:
            assert merged[-1] == state.append, (majority, merged, state)


def test_deposed_coordinator_loses_no_acked_entry():
    # Memory nodes are interchangeable until term 2 picks its majority, so
    # one fencing order per majority size stands for every other.
    starts = [failover_start((0, 1)), failover_start((0, 1, 2))]
    states = explore(starts, failover_successors, check_term_3)
    assert len(states) == FAILOVER_STATES
    # Not vacuous: term 2 recovered entries term 1 never got acked, and
    # some runs end with term 2's append acked on a majority.
    recovered = [state for state in states if state.recovered is not None]
    assert any(len(state.recovered) == len(T1_APPENDS) for state in recovered)
    assert any(not state.append_in_flight for state in recovered)


FAILOVER_STATES = 8_704
