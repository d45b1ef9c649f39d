"""Per-key linearizability checking for KV operation histories.

Consensus repositories live or die by their consistency story, so the
test suite records real client histories — invocation time, response
time, operation, outcome — during fault injection and checks them with
a Wing-Gong style linearizability search specialised to a per-key
read/write register:

* operations on different keys are independent (the store has no
  multi-key operations), so the history factors per key;
* an operation that never received a response may have taken effect at
  any point after its invocation (or never); the checker treats such
  ops as optional.

The search walks the history's minimal-operation frontier with
memoisation on (completed-set, register-value); per-key histories from
the tests are small, so this stays fast.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.kv.client import KvRequestFailed

__all__ = ["Op", "History", "RecordingClient", "check_key_history", "check_history"]

PUT = "put"
GET = "get"
DELETE = "delete"


class Op(NamedTuple):
    """One client operation as observed at the client."""

    key: bytes
    kind: str  # put | get | delete
    value: Optional[bytes]  # put argument, or get result (None = missing)
    invoked_at: float
    responded_at: Optional[float]  # None: no response observed (may or may not have happened)


class History:
    """A collection of recorded operations."""

    def __init__(self) -> None:
        self.ops: List[Op] = []

    def record(self, op: Op) -> None:
        self.ops.append(op)

    def per_key(self) -> Dict[bytes, List[Op]]:
        out: Dict[bytes, List[Op]] = {}
        for op in self.ops:
            out.setdefault(op.key, []).append(op)
        return out


class RecordingClient:
    """Any client's ``put``/``get``, with an :class:`Op` recorded per call.

    The one way a run keeps a checkable history (the chaos runner's
    workload, figHotspot's probe, the migration and recovery tests).  A
    failed call is recorded as never-responded: it may or may not have
    taken effect, which the checker treats as optional.  Several
    recording clients may share one *history*.
    """

    def __init__(self, client, history: Optional[History] = None):
        self.client = client
        self.sim = client.host.sim
        self.history = History() if history is None else history
        self.acked: Dict[bytes, bytes] = {}  #: key -> last acknowledged value
        self.acked_puts = 0
        self.failures = 0

    def put(self, key: bytes, value: bytes):
        """Process: a recorded ``client.put``."""
        yield from self._record("put", key, value, self.client.put(key, value))

    def get(self, key: bytes):
        """Process: a recorded ``client.get``; returns the value, None
        when missing or failed."""
        return (yield from self._record("get", key, None, self.client.get(key)))

    def read_back(self, keys: Optional[Iterable[bytes]] = None, client=None):
        """Process: one recorded get per key (default: every acked key),
        through *client* when the wrapped one is too impatient; returns
        the keys that did not read back their last acked value."""
        reader = client or self.client
        lost = []
        for key in sorted(self.acked) if keys is None else keys:
            got = yield from self._record("get", key, None, reader.get(key))
            if got != self.acked.get(key):
                lost.append(key)
        return lost

    def _record(self, kind: str, key: bytes, value, call):
        invoked = self.sim.now
        try:
            result = yield from call
        except KvRequestFailed:
            self.history.record(Op(key, kind, value, invoked, None))
            self.failures += 1
            return None
        if kind == "get":
            value = result
        else:
            self.acked[key] = value
            self.acked_puts += 1
        self.history.record(Op(key, kind, value, invoked, self.sim.now))
        return result


def check_history(history: History, initial: Optional[bytes] = None) -> Tuple[bool, Optional[bytes]]:
    """Check every key's sub-history; returns (ok, offending_key)."""
    for key, ops in history.per_key().items():
        if not check_key_history(ops, initial=initial):
            return False, key
    return True, None


def check_key_history(ops: List[Op], initial: Optional[bytes] = None) -> bool:
    """Wing-Gong linearizability for one key's register history.

    Returns True iff there is a total order of (a subset including all
    *responded* of) the operations that respects real-time order and
    register semantics, where never-responded operations may be
    included or dropped.
    """
    completed = [op for op in ops if op.responded_at is not None]
    pending = [op for op in ops if op.responded_at is None]
    ordered = sorted(completed, key=lambda op: op.invoked_at)
    all_ops = ordered + pending
    n = len(all_ops)
    if n > 64:
        raise ValueError("history too large for the exhaustive checker")

    full_mask = (1 << n) - 1
    seen: Set[Tuple[int, Optional[bytes]]] = set()

    def precedes(a: Op, b: Op) -> bool:
        """a finished before b was invoked (strict real-time order)."""
        return a.responded_at is not None and a.responded_at < b.invoked_at

    def search(done_mask: int, value: Optional[bytes]) -> bool:
        if done_mask & ((1 << len(ordered)) - 1) == (1 << len(ordered)) - 1:
            return True  # every completed op linearised (pending are optional)
        state = (done_mask, value)
        if state in seen:
            return False
        seen.add(state)
        for index, op in enumerate(all_ops):
            bit = 1 << index
            if done_mask & bit:
                continue
            # Minimality: every op that strictly precedes `op` in real
            # time must already be linearised.
            blocked = False
            for j, other in enumerate(all_ops):
                if j != index and not (done_mask & (1 << j)) and precedes(other, op):
                    blocked = True
                    break
            if blocked:
                continue
            if op.kind == GET:
                if op.responded_at is None:
                    # A get with no observed response constrains nothing.
                    if search(done_mask | bit, value):
                        return True
                    continue
                if op.value != value:
                    continue  # cannot linearise here
                if search(done_mask | bit, value):
                    return True
            elif op.kind == PUT:
                if search(done_mask | bit, op.value):
                    return True
            elif op.kind == DELETE:
                if search(done_mask | bit, None):
                    return True
        return False

    return search(0, initial)
