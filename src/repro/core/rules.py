"""The rules Sift's safety rests on, each written once as a pure function.

A rule decides and never acts: no ``yield``, no simulator, no I/O.  The
processes in :mod:`repro.core.cpu_node`, :mod:`repro.core.backups`,
:mod:`repro.core.recovery` and :mod:`repro.kv.store` gather the inputs
and carry out the answer, and ``tests/test_rules_exhaustive.py`` runs
the same functions through every interleaving of a small model.

The lease and election (§3.2) are CAS rounds on the admin words: a word
holds one claim and a CAS needs the exact expected word, so two claims
of one term cannot both sit on a majority.  The log merge (§3.4.1) is
also §4.3's KV WAL replay.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Set

__all__ = [
    "WON", "LOST", "RETRY", "UNANSWERED", "stale_rounds", "next_term", "campaign_verdict",
    "lease_renewed", "merge_logs", "repairs",
]

WON, LOST, RETRY, UNANSWERED = "won", "lost", "retry", "unanswered"


def stale_rounds(count: int, changed: int, quorum: int) -> int:
    """A follower's lease-expiry count after one heartbeat-read round: a
    quorum of changed admin words resets it, any other round adds one.
    The lease has expired once it exceeds ``missed_heartbeats_allowed``."""
    return 0 if changed >= quorum else count + 1


def next_term(term: int, seen: Iterable) -> int:
    """A candidate's term: one above its own and every admin word's."""
    return max([term, *(word.term_id for word in seen)]) + 1


def campaign_verdict(term: int, claimed: int, seen: Sequence, quorum: int) -> str:
    """Judge a candidate's CAS round from the number of words *claimed*
    and the words a failed CAS returned instead (*seen*).

    WON on a quorum of claims; LOST when a word carries a term at least
    ours (another candidate, or a coordinator at a term we never saw);
    otherwise retry after a back-off, expecting the words just seen.  A
    round fewer than a quorum of words answered was no contest and is
    UNANSWERED: it retries at the same term, which is safe because a
    word holds one claim and a CAS needs the exact expected word.
    """
    if claimed >= quorum:
        return WON
    if any(word.term_id >= term for word in seen):
        return LOST
    return UNANSWERED if claimed + len(seen) < quorum else RETRY


def lease_renewed(claimed: int, quorum: int) -> bool:
    """Judge a coordinator's heartbeat CAS round: renewed on a quorum of
    claims, else deposed.  A successor's word is never claimed, so a
    successor on a majority deposes; a lower-term word is a lagging node,
    claimed next round with the value it returned."""
    return claimed >= quorum


def merge_logs(per_node: Iterable[Mapping[int, object]], floor: int = 0, tail=(0, 0)) -> List:
    """The authoritative entries above *floor*, in position order.

    Each mapping takes a position (WAL log index, KV WAL sequence number)
    to an entry with a ``term``.  The highest term wins each position (a
    deposed coordinator may have left a divergent entry on a minority),
    and everything after the newest term's last entry is dropped (an old
    coordinator's unacknowledged suffix must not outlive its successor).
    A caller that left out entries at or below *floor* passes the largest
    ``(term, position)`` among them as *tail*, and gets the same answer.
    """
    merged = {}
    for entries in per_node:
        for key, entry in entries.items():
            best = merged.get(key)
            if best is None or entry.term > best.term:
                merged[key] = entry
    last = max([tail, *((entry.term, key) for key, entry in merged.items())])[1]
    return [merged[key] for key in sorted(merged) if floor < key <= last]


def repairs(merged: Sequence, per_node: Mapping[int, Mapping], live: Set[int]) -> List:
    """``(node, entry)`` for each merged WAL entry a serving node's log
    lacks or holds differently, node by node in log order (§3.4.1)."""
    return [
        (n, entry)
        for n in sorted(live)
        for entry in merged
        if per_node.get(n, {}).get(entry.log_index) != entry
    ]
