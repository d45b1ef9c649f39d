"""Random schedule exploration and shrinking.

``random_schedule(seed, space)`` expands one integer into a full
:class:`~repro.chaos.schedule.FaultSchedule` — same seed, same schedule,
no global state — so a CI failure is replayed by pasting the printed
seed back in.  ``shrink`` then greedily removes actions while the
failure persists, yielding a minimal reproducer (the Derecho
runtime-checking lesson: a 3-action trace is a bug report, a 40-action
one is noise).
"""

from __future__ import annotations

import random
import sys
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.chaos.controller import UnsupportedFault
from repro.chaos.runner import ChaosError, ChaosRunner
from repro.chaos.schedule import FOLLOWER, LEADER, FaultSchedule
from repro.sim.units import MS

__all__ = ["ChaosSpace", "random_schedule", "shrink", "ScheduleExplorer", "Failure"]


class ChaosSpace(NamedTuple):
    """What the generator is allowed to break."""

    nodes: int
    """Consensus-node count: no ``FOLLOWER`` target is drawn while fewer
    than two of them are up by the generator's own bookkeeping."""

    memory_nodes: int = 0
    """Sift memory-node count (0 disables memory-node faults)."""

    horizon_us: float = 1_000 * MS
    """Actions are placed in (0, horizon]."""

    min_actions: int = 2
    max_actions: int = 5

    allow_message_faults: bool = True
    allow_partitions: bool = True

    max_concurrent_crashes: int = 1
    """Never exceed the tolerated failure count mid-schedule."""


def random_schedule(seed: int, space: ChaosSpace) -> FaultSchedule:
    """Deterministically expand *seed* into a schedule.

    The generator tracks how many nodes are currently down and heals /
    restarts everything it broke before the horizon, so every generated
    schedule ends in a configuration the cluster can recover from —
    liveness failures then indicate protocol bugs, not impossible asks.
    """
    rng = random.Random(seed)
    schedule = FaultSchedule()
    count = rng.randint(space.min_actions, space.max_actions)
    down: List[object] = []  # node targets currently crashed
    mem_down: List[int] = []
    partitioned = False
    noisy = False

    kinds = ["crash"]
    if space.allow_partitions:
        kinds += ["partition", "partition_oneway", "isolate"]
    if space.allow_message_faults:
        kinds += ["drop", "duplicate", "delay"]
    if space.memory_nodes:
        kinds += ["crash_memory"]

    def role():
        # Same draw either way, so seeds that never hit the guard keep
        # their schedule; a lone survivor has no follower beside it.
        drawn = rng.choice([LEADER, FOLLOWER])
        return drawn if space.nodes - len(down) >= 2 else LEADER

    times = sorted(
        rng.uniform(0.05 * space.horizon_us, 0.75 * space.horizon_us)
        for _ in range(count)
    )
    for at_us in times:
        kind = rng.choice(kinds)
        if kind == "crash" and len(down) < space.max_concurrent_crashes:
            target = role()
            schedule.add(at_us, "crash_node", target)
            down.append(target)
        elif kind == "crash_memory" and len(mem_down) < (space.memory_nodes - 1) // 2:
            index = rng.randrange(space.memory_nodes)
            if index not in mem_down:
                schedule.crash_memory_node(at_us, index)
                mem_down.append(index)
        elif kind == "partition" and not partitioned:
            schedule.partition(at_us, (role(),))
            partitioned = True
        elif kind == "partition_oneway" and not partitioned:
            schedule.partition_oneway(at_us, role())
            partitioned = True
        elif kind == "isolate" and not partitioned:
            schedule.isolate(at_us, role())
            partitioned = True
        elif kind == "drop":
            schedule.drop_messages(at_us, rng.uniform(0.05, 0.3))
            noisy = True
        elif kind == "duplicate":
            schedule.duplicate_messages(at_us, rng.uniform(0.05, 0.3), ("rdma",))
            noisy = True
        elif kind == "delay":
            schedule.delay_messages(at_us, rng.uniform(100.0, 2_000.0), 0.5)
            noisy = True

    # Undo everything so recovery is always possible.
    cleanup_at = 0.8 * space.horizon_us
    if noisy:
        schedule.clear_message_faults(cleanup_at)
    if partitioned:
        schedule.heal(cleanup_at)
    if down or mem_down:
        schedule.restart_crashed(0.9 * space.horizon_us)
    return schedule


def shrink(
    schedule: FaultSchedule,
    still_fails: Callable[[FaultSchedule], bool],
    max_rounds: int = 10,
) -> FaultSchedule:
    """Greedily drop actions while *still_fails* keeps returning True.

    Deterministic: actions are tried back-to-front (later actions are
    likelier to be cleanup noise), restarting after each successful
    removal, until a fixpoint or *max_rounds*.
    """
    current = FaultSchedule(schedule.sorted_actions())
    for _round in range(max_rounds):
        removed = False
        for index in range(len(current) - 1, -1, -1):
            candidate = current.without(index)
            if still_fails(candidate):
                current = candidate
                removed = True
                break
        if not removed:
            break
    return current


class Failure(NamedTuple):
    """One reproducible failing interleaving."""

    seed: int
    schedule: FaultSchedule
    minimal: FaultSchedule
    error: str

    def replay_hint(self) -> str:
        return (
            f"replay with: random_schedule(seed={self.seed}, space=...) — "
            f"minimal reproducer: {self.minimal!r}"
        )


class ScheduleExplorer:
    """Run randomly generated schedules until one breaks an invariant."""

    def __init__(
        self,
        build: Callable,
        space: ChaosSpace,
        runner_kwargs: Optional[dict] = None,
    ):
        self.build = build
        self.space = space
        self.runner_kwargs = dict(runner_kwargs or {})
        self.skipped: List[Tuple[int, str]] = []  #: (seed, unresolvable target)

    def _error_for(self, schedule: FaultSchedule, seed: int) -> Optional[str]:
        runner = ChaosRunner(self.build, schedule, seed=seed, **self.runner_kwargs)
        try:
            runner.run()
        except ChaosError as exc:
            return str(exc)
        return None

    def run_seed(self, seed: int) -> Optional[Failure]:
        """Generate, run, and (on failure) shrink one seed's schedule.

        A generated schedule whose symbolic target cannot resolve when
        its action fires (the leader it names is not elected yet) is a
        skip, recorded in :attr:`skipped` and printed, not a failure;
        hand-written schedules keep raising :class:`UnsupportedFault`
        out of :meth:`ChaosRunner.run`.
        """
        schedule = random_schedule(seed, self.space)
        try:
            error = self._error_for(schedule, seed)
        except UnsupportedFault as exc:
            self.skipped.append((seed, str(exc)))
            print(f"CHAOS-EXPLORER-SKIP seed={seed}: {exc}", file=sys.stderr)
            return None
        if error is None:
            return None

        def still_fails(candidate: FaultSchedule) -> bool:
            try:
                return self._error_for(candidate, seed) is not None
            except UnsupportedFault:
                return False

        minimal = shrink(schedule, still_fails)
        return Failure(seed=seed, schedule=schedule, minimal=minimal, error=error)

    def explore(self, seeds) -> Optional[Failure]:
        """Run each seed; return the first failure (printing its replay
        seed so CI logs always carry the reproducer) or None."""
        for seed in seeds:
            failure = self.run_seed(seed)
            if failure is not None:
                print(
                    f"CHAOS-EXPLORER-FAILURE seed={failure.seed}", file=sys.stderr
                )
                print(failure.replay_hint(), file=sys.stderr)
                return failure
        return None
