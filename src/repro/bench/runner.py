"""Experiment drivers.

Three drivers cover every figure:

* :func:`run_throughput` — peak throughput of one (system, workload)
  point: build, preload, warm up, measure (Figs. 5 and 7).
* :func:`run_latency` — latency distribution at a fixed client count
  (Fig. 6: 1 client, and ~90% of peak via a calibrated client count).
* :func:`run_timeline` — a long run with fault-injection callbacks and
  100 ms throughput windows (Figs. 11 and 12).

Each experiment runs in a brand-new simulator with seeded RNG streams;
two invocations with identical parameters produce identical numbers.
"""

from __future__ import annotations

import gc
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.api import Cluster
from repro.bench.calibration import DEFAULT_SCALE, BenchScale
from repro.bench.metrics import Metrics
from repro.bench.systems import SystemSpec
from repro.errors import ReproError
from repro.obs import state as obs_state
from repro.obs.publish import publish_run
from repro.obs.trace import Tracer, set_tracer
from repro.sim.units import MS
from repro.workloads.clients import ClientPool
from repro.workloads.generator import (
    KeySampler,
    StripedZipfSampler,
    WorkloadMix,
    ZipfSampler,
)
from repro.workloads.openloop import AdmissionControl, OpenLoopEngine
from repro.workloads.retry import RetryPolicy

__all__ = [
    "ThroughputResult",
    "LatencyResult",
    "TimelineResult",
    "run_throughput",
    "run_latency",
    "run_timeline",
    "run_openloop",
]


class ThroughputResult(NamedTuple):
    """One Figure 5 / Figure 7 data point."""

    system: str
    workload: str
    ops_per_sec: float
    completed: int
    errors: int


class LatencyResult(NamedTuple):
    """One Figure 6 data point (microseconds)."""

    system: str
    clients: int
    read_p50: Optional[float]
    read_p95: Optional[float]
    write_p50: Optional[float]
    write_p95: Optional[float]
    ops_per_sec: float


class TimelineResult(NamedTuple):
    """A Figure 11 / 12 series."""

    system: str
    series: List[Tuple[float, float]]  # (seconds, ops/sec) per 100ms window
    events: List[Tuple[float, str]]  # (seconds, label) of injected faults
    base_us: float = 0.0  # absolute sim time of t=0 (for rebasing marks)


def boot(
    spec: SystemSpec,
    scale: BenchScale,
    seed: int,
    sampler_for: Optional[Callable[[object], KeySampler]] = None,
):
    """Build -> wait ready -> preload: the preamble every driver shares.

    Builds *spec* on a fresh fabric seeded with *seed*, runs until it
    serves, and preloads ``scale.keys`` values.  The keys are those of
    the sampler the load will draw from — *sampler_for(cluster)*, chosen
    once the cluster and its ring exist; plain Zipf by default — because
    a striped sampler renders different wire keys than the plain one and
    reads must hit.  Returns the :class:`repro.api.Cluster` and the sampler.
    """
    cluster = Cluster.build(spec, seed=seed)
    if sampler_for is None:
        sampler = ZipfSampler(scale.keys, scale.zipf_theta)
    else:
        sampler = sampler_for(cluster.inner)
    try:
        cluster.wait_ready(deadline_us=spec.ready_timeout_us)
    except (ReproError, TimeoutError) as exc:
        raise RuntimeError(f"{spec.name} never became ready: {exc}") from exc
    value = b"v" * scale.value_bytes
    cluster.preload((sampler.key(i), value) for i in range(scale.keys))
    return cluster, sampler


def _drive(
    spec: SystemSpec,
    mix: WorkloadMix,
    n_clients: int,
    scale: BenchScale,
    seed: int,
    tracer: Optional[Tracer] = None,
):
    """Common build -> preload -> warmup -> measure flow; returns metrics.

    With *tracer* the measurement window runs traced: the tracer is
    installed after warmup and removed after the window, so preload and
    warmup spans never pollute it.  Tracing draws no randomness and
    never schedules, so the measured numbers are byte-identical with or
    without it (pinned by ``tests/test_obs_determinism.py``).  Ops in
    flight at install time show up as parentless milestone instants;
    :mod:`repro.obs.critpath` skips those incomplete roots.
    """
    booted, sampler = boot(spec, scale, seed)
    sim, fabric, cluster = booted.sim, booted.fabric, booted.inner
    # Derive the reservoir-sampling RNG from the experiment seed: every
    # source of randomness in a run traces back to the one seed argument.
    metrics = Metrics(seed=seed)
    pool = ClientPool(
        fabric, cluster, n_clients, mix, sampler, metrics,
        value_bytes=scale.value_bytes, client_factory=spec.client_factory,
    )
    pool.start()
    sim.run(until=sim.now + scale.warmup_us)
    previous = None
    gc_was_enabled = False
    if tracer is not None:
        # Collecting an earlier point's dead process graph mid-window runs
        # its ``finally`` blocks, which mutate shared state (lock tables,
        # counters) at GC-timing-dependent moments.  Drain it now and keep
        # automatic GC off, so the trace depends on the schedule only.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        previous = set_tracer(tracer)
    try:
        metrics.begin(sim.now)
        sim.run(until=sim.now + scale.measure_us)
        metrics.end(sim.now)
    finally:
        if tracer is not None:
            set_tracer(previous)
            if gc_was_enabled:
                gc.enable()
    pool.stop()
    if obs_state.REGISTRY is not None:
        metrics.publish(obs_state.REGISTRY)
        publish_run(obs_state.REGISTRY, fabric, cluster)
    return metrics


def run_throughput(
    spec: SystemSpec,
    mix: WorkloadMix,
    n_clients: Optional[int] = None,
    scale: BenchScale = DEFAULT_SCALE,
    seed: int = 1,
) -> ThroughputResult:
    """Peak (or fixed-client) throughput for one system and workload."""
    clients = n_clients if n_clients is not None else scale.clients
    metrics = _drive(spec, mix, clients, scale, seed)
    return ThroughputResult(
        system=spec.name,
        workload=mix.name,
        ops_per_sec=metrics.throughput(),
        completed=metrics.completed,
        errors=metrics.errors,
    )


def run_latency(
    spec: SystemSpec,
    mix: WorkloadMix,
    n_clients: int,
    scale: BenchScale = DEFAULT_SCALE,
    seed: int = 1,
    tracer: Optional[Tracer] = None,
) -> LatencyResult:
    """Latency percentiles at a fixed load level.

    Pass *tracer* to trace the measurement window (see :func:`_drive`);
    the caller then walks the tracer with :mod:`repro.obs.critpath`.
    """
    metrics = _drive(spec, mix, n_clients, scale, seed, tracer=tracer)

    def maybe(op: str, p: float) -> Optional[float]:
        if metrics.latencies.get(op):
            return metrics.latency(op, p)
        return None

    return LatencyResult(
        system=spec.name,
        clients=n_clients,
        read_p50=maybe("read", 50),
        read_p95=maybe("read", 95),
        write_p50=maybe("write", 50),
        write_p95=maybe("write", 95),
        ops_per_sec=metrics.throughput(),
    )


def run_timeline(
    spec: SystemSpec,
    mix: WorkloadMix,
    n_clients: int,
    duration_us: float,
    events: List[Tuple[float, str, Callable]],
    scale: BenchScale = DEFAULT_SCALE,
    seed: int = 1,
) -> TimelineResult:
    """Throughput timeline with fault injection (Figs. 11-12).

    *events* is a list of ``(at_us, label, fn)``; ``fn(cluster)`` runs at
    simulated time *at_us* measured from the start of the measurement.
    A :class:`repro.chaos.FaultSchedule` is accepted directly — its
    actions become the event list, injected through a
    :class:`repro.chaos.ChaosController`.
    """
    if hasattr(events, "to_timeline_events"):
        events = events.to_timeline_events()
    booted, sampler = boot(spec, scale, seed)
    sim, fabric, cluster = booted.sim, booted.fabric, booted.inner
    metrics = Metrics(seed=seed)
    pool = ClientPool(
        fabric, cluster, n_clients, mix, sampler, metrics,
        value_bytes=scale.value_bytes, client_factory=spec.client_factory,
    )
    pool.start()
    sim.run(until=sim.now + scale.warmup_us)

    base = sim.now
    metrics.begin(base)
    injected: List[Tuple[float, str]] = []
    for at_us, label, fn in sorted(events):
        sim.run(until=base + at_us)
        fn(cluster)
        injected.append(((sim.now - base) / 1e6, label))
    sim.run(until=base + duration_us)
    metrics.end(sim.now)
    pool.stop()
    if obs_state.REGISTRY is not None:
        metrics.publish(obs_state.REGISTRY)
        publish_run(obs_state.REGISTRY, fabric, cluster)
    series = metrics.timeline(base, sim.now)
    rebased = [(t - base / 1e6, ops) for t, ops in series]
    return TimelineResult(
        system=spec.name, series=rebased, events=injected, base_us=base
    )


def run_openloop(
    spec: SystemSpec,
    mix: WorkloadMix,
    offered_ops_per_sec: float,
    n_clients: int,
    scale: BenchScale = DEFAULT_SCALE,
    seed: int = 1,
    window_us: float = None,
    admission: Optional[AdmissionControl] = None,
    retry: Optional[RetryPolicy] = None,
) -> dict:
    """Open-loop arrivals at a fixed offered rate: one figMclients cell.

    Same build -> preload -> warmup -> measure flow as :func:`_drive`,
    but the load comes from :class:`~repro.workloads.openloop.
    OpenLoopEngine` — vectorized Poisson arrival windows over an
    *n_clients*-strong simulated population — instead of closed-loop
    client coroutines.  Sharded clusters get a
    :class:`StripedZipfSampler` over the service ring so each arrival's
    shard is one vectorized modulo; anything else runs single-lane with
    the plain Zipf sampler.  ``generated`` counts the arrivals drawn (the
    realised offered load), ``shed`` maps reason to count.
    """
    if window_us is None:
        window_us = 1 * MS

    def sampler_for(cluster) -> KeySampler:
        if cluster.ring is not None:
            return StripedZipfSampler(scale.keys, cluster.ring, scale.zipf_theta)
        return ZipfSampler(scale.keys, scale.zipf_theta)

    booted, sampler = boot(spec, scale, seed, sampler_for)
    sim, fabric, cluster = booted.sim, booted.fabric, booted.inner
    engine = OpenLoopEngine(
        fabric,
        cluster,
        mix,
        sampler,
        offered_ops_per_sec=offered_ops_per_sec,
        n_clients=n_clients,
        window_us=window_us,
        admission=admission,
        retry=retry,
        value_bytes=scale.value_bytes,
    )
    engine.start()
    sim.run(until=sim.now + scale.warmup_us)
    engine.begin_measurement()
    sim.run(until=sim.now + scale.measure_us)
    engine.end_measurement()
    engine.stop()
    if obs_state.REGISTRY is not None:
        engine.publish(obs_state.REGISTRY)
        publish_run(obs_state.REGISTRY, fabric, cluster)
    return {
        "offered_ops_per_sec": offered_ops_per_sec,
        "achieved_ops_per_sec": engine.achieved_ops_per_sec(),
        "generated": engine.counts["offered"],
        "admitted": engine.counts["admitted"],
        "completed": engine.counts["completed"],
        "errors": engine.counts["errors"],
        "retries": engine.counts["retries"],
        "shed": dict(engine.shed),
        "clients_active": engine.clients_active,
        "clients_population": engine.generator.n_clients,
        "inflight_peaks": engine.inflight_peaks(),
        "slo": engine.slo_summary(),
    }
