"""Safety invariants checked during and after fault injection.

Three families, matching the guarantees the paper argues for (§3.2):

* **leader uniqueness** — at most one node may lead *per term*.  An
  instantaneous two-leaders snapshot is legal in a lease protocol (the
  deposed coordinator believes it leads until its next heartbeat CAS
  fails); two nodes claiming the *same term* is never legal.
* **committed-prefix durability / linearizability** — recorded client
  histories (plus a final read-back of every key) must be linearizable
  per key (:mod:`repro.bench.lincheck`).  Losing an acked write makes
  the read-back return an older value after the ack responded — a
  real-time-order violation the checker flags.
* **no phantom values** — for systems whose crash model can lose acked
  writes (EPaxos' asynchronous commit announcements), the weaker check:
  every completed read returns a value some client actually wrote to
  that key (or "missing"), never a corrupt or cross-key value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.bench.lincheck import History, check_key_history
from repro.sim.units import MS

__all__ = ["InvariantViolation", "LeaderMonitor", "check_linearizable", "check_no_phantoms"]


class InvariantViolation(AssertionError):
    """A safety invariant failed; the message carries replay context."""


class LeaderMonitor:
    """Continuously samples leadership; flags same-term splits.

    Runs as a plain simulator process (not bound to any host, so node
    crashes cannot kill the observer).  Sampling every *interval_us*
    bounds detection granularity; the per-term map catches a split even
    when the two reigns never overlap a sample.
    """

    def __init__(self, cluster, interval_us: float = 1 * MS):
        self.cluster = cluster
        self.sim = cluster.fabric.sim
        self.interval_us = interval_us
        self.by_term: Dict[int, str] = {}
        self.violations: List[str] = []
        self.max_simultaneous = 0
        self._stopped = False

    def start(self) -> None:
        if self.cluster.leader_based:
            self.sim.spawn(self._watch(), name="chaos-leader-monitor")

    def stop(self) -> None:
        self._stopped = True

    def observe(self) -> None:
        """Take one sample now (also called after every injection)."""
        if not self.cluster.leader_based:
            return
        leaders = self.cluster.leaders()
        self.max_simultaneous = max(self.max_simultaneous, len(leaders))
        for name, term in leaders:
            holder = self.by_term.setdefault(term, name)
            if holder != name:
                self.violations.append(
                    f"term {term} led by both {holder} and {name} "
                    f"at t={self.sim.now:.0f}us"
                )

    def _watch(self):
        while not self._stopped:
            self.observe()
            yield self.sim.timeout(self.interval_us)


def check_linearizable(history: History) -> None:
    """Raise :class:`InvariantViolation` unless every key linearizes."""
    for key, ops in history.per_key().items():
        if not check_key_history(ops):
            lines = [
                f"  {op.kind}({op.value!r}) @ {op.invoked_at:.0f}"
                f"..{'-' if op.responded_at is None else f'{op.responded_at:.0f}'}"
                for op in sorted(ops, key=lambda o: o.invoked_at)
            ]
            raise InvariantViolation(
                f"history for key {key!r} is not linearizable:\n" + "\n".join(lines)
            )


def check_no_phantoms(history: History) -> None:
    """Every completed read must return a written value or None."""
    written: Dict[bytes, Set[Optional[bytes]]] = {}
    for op in history.ops:
        if op.kind == "put":
            written.setdefault(op.key, set()).add(op.value)
    for op in history.ops:
        if op.kind != "get" or op.responded_at is None or op.value is None:
            continue
        if op.value not in written.get(op.key, set()):
            raise InvariantViolation(
                f"phantom read: key {op.key!r} returned {op.value!r}, "
                f"which no client ever wrote there"
            )
