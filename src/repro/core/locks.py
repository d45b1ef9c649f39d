"""Coordinator-local block locks.

All requests flow through the single coordinator, so consistency within
the group needs only *local* reader/writer locks per block of replicated
memory (§3.3): reads take a read lock, logged writes take write locks,
and memory-node recovery read-locks regions incrementally so that "no
updates can be applied to it, but reads go through" (§3.4.2).

Locks are granted strictly FIFO per block to prevent writer starvation
under the read-heavy workloads of the evaluation.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Deque, Dict, List, NamedTuple, Tuple

from repro.sim.engine import Event, Simulator

__all__ = ["BlockLockTable", "LockMode", "LockToken"]


class LockMode(Enum):
    """Reader/writer lock modes."""

    READ = "read"
    WRITE = "write"


class LockToken(NamedTuple):
    """A granted lock over a block range; pass back to release()."""

    blocks: Tuple[int, ...]
    mode: LockMode


class _Waiter(NamedTuple):
    mode: LockMode
    event: Event


class _BlockState:
    __slots__ = ("readers", "writer", "queue")

    def __init__(self) -> None:
        self.readers = 0
        self.writer = False
        self.queue: Deque[_Waiter] = deque()

    @property
    def idle(self) -> bool:
        return not self.readers and not self.writer and not self.queue

    def can_grant(self, mode: LockMode) -> bool:
        if mode is LockMode.READ:
            return not self.writer
        return not self.writer and self.readers == 0


class BlockLockTable:
    """Per-block reader/writer locks with FIFO fairness.

    Block indices are plain integers; the replicated-memory layer maps
    byte ranges onto them.  Multi-block acquisitions take blocks in
    ascending order, which (with every caller doing the same) rules out
    deadlock.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._blocks: Dict[int, _BlockState] = {}

    # -- acquisition ----------------------------------------------------------

    def acquire(self, blocks: List[int], mode: LockMode):
        """Process: acquire *mode* locks on all *blocks*; returns a token."""
        ordered = tuple(sorted(set(blocks)))
        for block in ordered:
            state = self._blocks.get(block)
            if state is None:
                state = _BlockState()
                self._blocks[block] = state
            if state.can_grant(mode) and not state.queue:
                self._grant(state, mode)
            else:
                event = Event(self.sim)
                state.queue.append(_Waiter(mode, event))
                yield event  # granted by _pump when our turn arrives
        return LockToken(ordered, mode)

    def try_acquire(self, blocks: List[int], mode: LockMode):
        """Non-blocking variant: token or None if any block would wait."""
        ordered = tuple(sorted(set(blocks)))
        states = []
        for block in ordered:
            state = self._blocks.get(block)
            if state is None:
                state = _BlockState()
                self._blocks[block] = state
            if not state.can_grant(mode) or state.queue:
                return None
            states.append(state)
        for state in states:
            self._grant(state, mode)
        return LockToken(ordered, mode)

    def release(self, token: LockToken) -> None:
        """Release a previously granted token."""
        for block in token.blocks:
            state = self._blocks.get(block)
            if state is None:
                raise RuntimeError(f"release of unheld lock on block {block}")
            if token.mode is LockMode.READ:
                if state.readers <= 0:
                    raise RuntimeError(f"release of unheld read lock on {block}")
                state.readers -= 1
            else:
                if not state.writer:
                    raise RuntimeError(f"release of unheld write lock on {block}")
                state.writer = False
            self._pump(state)
            # A waiter woken by the pump runs at once and may have released
            # this block itself, dropping (or even replacing) its state.
            if state.idle and self._blocks.get(block) is state:
                del self._blocks[block]

    # -- mechanics ---------------------------------------------------------------

    def _grant(self, state: _BlockState, mode: LockMode) -> None:
        if mode is LockMode.READ:
            state.readers += 1
        else:
            state.writer = True

    def _pump(self, state: _BlockState) -> None:
        while state.queue and state.can_grant(state.queue[0].mode):
            waiter = state.queue.popleft()
            self._grant(state, waiter.mode)
            waiter.event.trigger(None)
            if waiter.mode is LockMode.WRITE:
                break  # a writer excludes everyone behind it

    # -- introspection -----------------------------------------------------------

    def held(self, block: int) -> bool:
        """Whether any lock is currently held on *block*."""
        state = self._blocks.get(block)
        return state is not None and (state.readers > 0 or state.writer)

    def waiters(self, block: int) -> int:
        """Queue length on *block* (contention metric)."""
        state = self._blocks.get(block)
        return len(state.queue) if state else 0
