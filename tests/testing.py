"""Shared deterministic test scaffolding.

Everything in this module derives randomness from the simulator's seeded
:class:`~repro.sim.rng.RngStreams` — helpers never construct their own
ad-hoc RNGs, so two runs with the same seed are bit-identical.
"""

from __future__ import annotations

import gc
from typing import Callable, Optional, Tuple, TypeVar

from repro.net.fabric import Fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS, SEC

__all__ = [
    "register_hypothesis_profile",
    "make_sim",
    "make_group",
    "make_kv_stack",
    "run_scenario",
    "collect_once",
]

T = TypeVar("T")


def register_hypothesis_profile() -> None:
    """Install and load the deterministic ``repro`` Hypothesis profile.

    Simulations are deterministic but not fast on a single core, so the
    profile disables per-example deadlines (wall-clock noise must not
    fail a correct property) and keeps example counts moderate;
    individual tests override ``max_examples`` where a structure
    deserves a deeper search.  Idempotent: safe to call from several
    conftests in one pytest run.
    """
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "repro",
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )
    settings.load_profile("repro")


def make_sim(seed: int = 0) -> Tuple[Simulator, Fabric]:
    """A fresh simulator + fabric whose RNG streams derive from *seed*."""
    sim = Simulator()
    fabric = Fabric(sim, rng=RngStreams(seed=seed))
    return sim, fabric


def make_group(fc: int = 1, seed: int = 0, name: str = "e", **overrides):
    """A small started Sift group with no application (election tests)."""
    from repro.core import SiftConfig, SiftGroup

    sim, fabric = make_sim(seed)
    defaults = dict(fm=1, fc=fc, data_bytes=64 * 1024, wal_entries=64)
    defaults.update(overrides)
    group = SiftGroup(fabric, SiftConfig(**defaults), name=name)
    group.start()
    return sim, fabric, group


def make_kv_stack(
    ec: bool = False,
    fc: int = 1,
    fm: int = 1,
    seed: int = 0,
    name: str = "i",
    max_keys: int = 256,
    **sift_overrides,
):
    """A started Sift group running the KV app, plus one client."""
    from repro.core import SiftGroup
    from repro.kv import KvClient, KvConfig, kv_app_factory

    sim, fabric = make_sim(seed)
    kv_config = KvConfig(max_keys=max_keys, wal_entries=128, watermark_interval=32)
    overrides = dict(wal_entries=128, memnode_poll_interval_us=30 * MS)
    overrides.update(sift_overrides)
    sift_config = kv_config.sift_config(fm=fm, fc=fc, erasure_coding=ec, **overrides)
    group = SiftGroup(fabric, sift_config, name=name, app_factory=kv_app_factory(kv_config))
    group.start()
    client = KvClient(fabric.add_host("client", cores=4), fabric, group)
    return sim, fabric, group, client


def run_scenario(sim: Simulator, gen, until: float = 120 * SEC, message: Optional[str] = None):
    """Spawn *gen*, run the sim until it settles, re-raise its failure."""
    process = sim.spawn(gen)
    sim.run_until_settled(process, deadline=until)
    assert process.settled, message or "scenario did not finish"
    if process.failed:
        raise process.exception
    return process.value


def _live_simulators() -> int:
    # Counted, not weakref'd: CPython clears weakrefs before it runs the
    # finalizers that would resurrect a graph.
    return sum(isinstance(obj, Simulator) for obj in gc.get_objects())


def collect_once(build: Callable[[], T]) -> T:
    """Run *build* (which drops every simulator it makes) with automatic GC
    off, collect exactly once, and assert no new :class:`Simulator` is left;
    returns what *build* returned."""
    gc.collect()
    gc.collect()  # whatever earlier tests left, resurrected graphs included
    before = _live_simulators()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = build()
        gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert _live_simulators() == before, "one collection left a dead simulator"
    return result
