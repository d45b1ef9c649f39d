"""Parallel execution of independent figure points.

A figure is a set of *points* — independent (system, workload, load)
experiments that share no simulator state.  Each point runs under its
own fresh :class:`~repro.obs.registry.MetricsRegistry`, in-process when
``jobs == 1`` or fanned out across worker processes otherwise, and the
per-point registry dumps are merged back into the ambient registry **in
declared point order** — the order the old serial loops published in.
Because isolation and merge order are identical on both paths, the
``BENCH_*.json`` artifact a figure writes is byte-identical at any job
count.

Point functions must be top-level callables with picklable keyword
arguments (see :mod:`repro.bench.points`) so they survive the trip to a
worker process.
"""

from __future__ import annotations

import gc
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs import state as obs_state
from repro.obs.registry import MetricsRegistry, collecting, current_registry
from repro.sim.engine import Simulator

__all__ = ["Point", "run_points"]

_drained_at = 0  # Simulator.built at the last drain


def _quiet_collect() -> None:
    """Drain cyclic garbage, muted, if a simulator was built since the last drain.

    Finalising a dead simulator's process graph runs its ``finally``
    blocks; any counters they charge belong to no experiment, so the
    drain runs with observability off.
    """
    global _drained_at
    if Simulator.built == _drained_at:
        return
    _drained_at = Simulator.built
    previous_registry = obs_state.REGISTRY
    previous_tracer = obs_state.TRACER
    obs_state.REGISTRY = None
    obs_state.TRACER = None
    try:
        gc.collect()
    finally:
        obs_state.REGISTRY = previous_registry
        obs_state.TRACER = previous_tracer


class Point(NamedTuple):
    """One independent experiment of a figure.

    *key* is unique within the figure and fixes the merge position;
    *fn* is a top-level picklable callable invoked as ``fn(**kwargs)``.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any]


def _execute_point(point: Point) -> Tuple[Any, Dict[str, Any]]:
    """Run one point under a private registry; return (value, dump).

    Automatic GC is paused for the point's duration: collecting a
    *previous* point's dead process graph mid-run runs its ``finally``
    blocks, which mutate shared state at GC-timing-dependent moments.
    Garbage is drained (muted) at both point boundaries instead, so
    every point's dump is a function of its own arguments only and
    serial and ``--jobs N`` runs merge to identical bytes.
    """
    _quiet_collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        registry = MetricsRegistry()
        with collecting(registry):
            value = point.fn(**point.kwargs)
        dump = registry.dump()
    finally:
        if gc_was_enabled:
            gc.enable()
    _quiet_collect()
    return value, dump


def run_points(
    points: Sequence[Point],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Execute every point and return ``{key: value}``.

    With ``jobs > 1`` points run across worker processes; completion
    order is nondeterministic but irrelevant — registry dumps are merged
    into the ambient registry strictly in declared order, after all
    points finish.  *progress*, if given, is called with each point's
    key as it completes (parallel runs report in completion order).
    """
    keys: List[str] = [point.key for point in points]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate point keys: {keys}")
    outcomes: Dict[str, Tuple[Any, Dict[str, Any]]] = {}
    if jobs <= 1 or len(points) <= 1:
        for point in points:
            outcomes[point.key] = _execute_point(point)
            if progress is not None:
                progress(point.key)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            futures = {pool.submit(_execute_point, p): p.key for p in points}
            for future in as_completed(futures):
                key = futures[future]
                outcomes[key] = future.result()
                if progress is not None:
                    progress(key)
    registry = current_registry()
    merged: Dict[str, Any] = {}
    for point in points:
        value, dump = outcomes[point.key]
        if registry is not None:
            registry.merge_dump(dump)
        merged[point.key] = value
    return merged
