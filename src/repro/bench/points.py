"""Every figure's parameters, point list and point functions.

A figure is declared by two callables here, which
:data:`repro.bench.cli.FIGURES` pairs with a renderer and gates:

``<fig>_params(smoke, scale)``
    The artifact's ``params`` section, and the only place ``--smoke``
    is read: the schedule, cores, workload and client counts the figure
    runs at.  JSON-native (lists, no tuples), so the dict a run builds
    equals the one a committed artifact loads.
``<fig>_points(params, scale, seed)``
    The figure's :class:`~repro.bench.parallel.Point` list, built from
    that dict and nothing else, so a gate or renderer reading
    ``params`` reads what ran.  Declared order is the order the old
    serial loops ran in, which is also the registry merge order and
    therefore part of the artifact contract.

The point functions each run one independent experiment (one (system,
workload) throughput cell, one (system, load) latency cell, one
fault-injection timeline) and return a plain JSON-shaped fragment.
They are module-level and take only picklable keyword arguments, all of
which come from ``params`` plus ``scale`` and ``seed``, so
:mod:`repro.bench.parallel` can ship them to worker processes.
"""

from __future__ import annotations

from typing import List

from repro.api import system_spec
from repro.bench.calibration import BenchScale
from repro.bench.parallel import Point
from repro.bench.runner import (
    boot,
    run_latency,
    run_openloop,
    run_throughput,
    run_timeline,
)
from repro.bench.systems import sift_spec
from repro.chaos import FaultSchedule
from repro.cluster.backups import sweep_backup_pool
from repro.cluster.costs import relative_costs
from repro.cluster.provision import TABLE2
from repro.obs.critpath import critical_path_section
from repro.obs.trace import Tracer
from repro.sim.units import MS, SEC
from repro.workloads import WORKLOADS

__all__ = [
    "FIG5_SYSTEMS",
    "FIG6_SYSTEMS",
    "FIG7_SYSTEMS",
    "backup_pool_point",
    "coordinator_failure_point",
    "cost_params",
    "cost_points",
    "critpath_point",
    "fig5_params",
    "fig5_points",
    "fig5ablate_params",
    "fig5ablate_points",
    "fig6_params",
    "fig6_points",
    "fig6path_params",
    "fig6path_points",
    "fig7_params",
    "fig7_points",
    "fig8_params",
    "fig8_points",
    "fig8live_params",
    "fig8live_points",
    "fig11_params",
    "fig11_points",
    "fig11sweep_params",
    "fig11sweep_points",
    "fig12_params",
    "fig12_points",
    "figHotspot_params",
    "figHotspot_points",
    "figMclients_params",
    "figMclients_points",
    "hotspot_point",
    "knob_sweep_params",
    "knob_sweep_points",
    "latency_point",
    "live_pool_point",
    "memnode_failure_point",
    "openloop_point",
    "recovery_sweep_point",
    "saturation_clients",
    "throughput_point",
]

#: Fig. 5 system order (slowest first, matching the paper's bar groups).
FIG5_SYSTEMS = ("epaxos", "sift-ec", "sift", "raft-r")

#: Fig. 6 system order.
FIG6_SYSTEMS = ("raft-r", "sift", "sift-ec", "epaxos")


# -- point functions (top-level, picklable) ---------------------------------


def throughput_point(
    system: str,
    workload: str,
    clients: int,
    cores: int,
    scale: BenchScale,
    seed: int,
    **options,
) -> dict:
    """One peak-throughput cell of (system, workload, cores): the point
    function of fig5, fig7 and the ablations.  *options* reach the spec
    factory (``f=``, ``kv_overrides=``, ``sift_overrides=``)."""
    spec = system_spec(system, scale=scale, cores=cores, **options)
    result = run_throughput(
        spec, WORKLOADS[workload], n_clients=clients, scale=scale, seed=seed
    )
    return {
        "ops_per_sec": result.ops_per_sec,
        "completed": result.completed,
        "errors": result.errors,
    }


def latency_point(
    system: str, workload: str, clients: int, cores: int, scale: BenchScale, seed: int
) -> dict:
    """One Figure 6 cell: latency percentiles at a fixed client count."""
    spec = system_spec(system, scale=scale, cores=cores)
    r = run_latency(spec, WORKLOADS[workload], clients, scale=scale, seed=seed)
    return {
        "clients": clients,
        "read_p50": r.read_p50,
        "read_p95": r.read_p95,
        "write_p50": r.write_p50,
        "write_p95": r.write_p95,
        "ops_per_sec": r.ops_per_sec,
    }


def critpath_point(
    system: str,
    workload: str,
    clients: int,
    cores: int,
    scale: BenchScale,
    seed: int,
    sample_ops: int = 8,
    export_spans: int = 0,
) -> dict:
    """One fig6path cell: the fig6 latency run, traced, with its
    critical-path attribution digest.

    The tracer only covers the measurement window (see
    :func:`repro.bench.runner._drive`), draws no randomness and never
    schedules, so ``ops_per_sec`` matches the untraced fig6 cell and
    the digest is deterministic in *seed*.  With ``export_spans > 0``
    the first that-many raw span dicts ride along for the Perfetto
    export.
    """
    spec = system_spec(system, scale=scale, cores=cores)
    tracer = Tracer()
    r = run_latency(
        spec, WORKLOADS[workload], clients, scale=scale, seed=seed, tracer=tracer
    )
    out = {
        "clients": clients,
        "ops_per_sec": r.ops_per_sec,
        "spans_recorded": len(tracer.spans),
        "critical_path": critical_path_section(tracer, sample_ops=sample_ops),
    }
    if export_spans:
        out["spans"] = [s.to_dict() for s in tracer.spans[:export_spans]]
    return out


def _memnode_failure_run(
    scale: BenchScale,
    seed: int,
    clients: int,
    kill_at_us: float,
    restart_at_us: float,
    duration_us: float,
    cores: int,
    workload: str,
    f: int = 1,
    recovery_partitions: int = 1,
) -> dict:
    """One Figure-11-style timeline: kill memory node 2, restart it,
    watch the copy-back finish.

    Shared by the fig11 point (``f=1``, single-stream recovery — the
    schedule must stay byte-identical to the pre-partitioning runs) and
    the fig11sweep points (``f=2`` so four source links exist, sweeping
    ``recovery_partitions``).  The schedule arguments are the fields of
    :func:`fig11_params`; tests pass a tiny one.
    """
    spec = sift_spec(
        f=f, cores=cores, scale=scale, recovery_partitions=recovery_partitions
    )
    recovered_at: List[float] = []
    copy_stats: List[dict] = []

    def watch_recovery(group):
        def watch():
            coordinator = group.serving_coordinator()
            while coordinator.repmem.states[2] != "live":
                yield group.fabric.sim.timeout(10 * MS)
            recovered_at.append(group.fabric.sim.now)
            manager = coordinator.recovery_manager
            if manager is not None and 2 in manager.copy_stats:
                copy_stats.append(dict(manager.copy_stats[2]))

        group.fabric.sim.spawn(watch(), name="watch-recovery")

    schedule = (
        FaultSchedule()
        .crash_memory_node(kill_at_us, 2)
        .restart_memory_node(restart_at_us, 2)
        .probe(restart_at_us, watch_recovery, "watch recovery")
    )
    result = run_timeline(
        spec,
        WORKLOADS[workload],
        clients,
        duration_us,
        events=schedule,
        scale=scale,
        seed=seed,
    )
    recovery_s = (
        (recovered_at[0] - result.base_us) / 1e6 if recovered_at else None
    )
    # The poll-based recovery_s above is quantised at the watcher's
    # 10 ms tick (and is part of the fig11 artifact contract); the copy
    # stats carry an exact completion stamp for the sweep to gate on.
    copy = copy_stats[0] if copy_stats else None
    precise_s = (
        (copy["finished_at_us"] - result.base_us) / 1e6
        if copy and copy.get("finished_at_us") is not None
        else None
    )
    return {
        "series": [[t, ops] for t, ops in result.series],
        "events": [[t, label] for t, label in result.events],
        "recovery_s": recovery_s,
        "recovery_precise_s": precise_s,
        "copy": copy,
    }


def memnode_failure_point(scale: BenchScale, seed: int, **schedule) -> dict:
    """The Figure 11 timeline: kill memory node 2, restart it, watch
    the copy-back finish.  One point — the timeline is a single run."""
    run = _memnode_failure_run(scale, seed, **schedule)
    return {
        "series": run["series"],
        "events": run["events"],
        "recovery_s": run["recovery_s"],
    }


def recovery_sweep_point(
    scale: BenchScale, seed: int, f: int, partitions: int, **schedule
) -> dict:
    """One fig11sweep cell: the fig11 timeline at Fm = *f* with
    ``recovery_partitions=partitions``, plus the copy-phase stats the
    partition count actually moves."""
    run = _memnode_failure_run(
        scale, seed, f=f, recovery_partitions=partitions, **schedule
    )
    copy = run["copy"] or {}
    return {
        "partitions": partitions,
        "recovery_s": run["recovery_precise_s"],
        "recovery_poll_s": run["recovery_s"],
        "copy_us": copy.get("copy_us"),
        "copy_bytes": copy.get("bytes"),
        "sources": copy.get("sources"),
        "series": run["series"],
        "events": run["events"],
    }


def coordinator_failure_point(
    clients: int,
    kill_at_us: float,
    duration_us: float,
    cores: int,
    workload: str,
    scale: BenchScale,
    seed: int,
) -> dict:
    """The Figure 12 timeline: kill the coordinator, watch a backup CPU
    node detect it, recover the log and the KV structures, and serve.

    ``killed_s`` and ``serving_s`` are in the series' time frame;
    ``replayed`` counts the KV WAL records the successor replayed.
    """
    marks: dict = {}

    def watch_takeover(group):
        sim = group.fabric.sim
        marks["killed"] = sim.now

        def watch():
            while group.serving_coordinator() is None:
                yield sim.timeout(5 * MS)
            marks["serving"] = sim.now
            marks["replayed"] = group.serving_coordinator().app.stats["replayed"]

        sim.spawn(watch(), name="watch-takeover")

    schedule = (
        FaultSchedule()
        .crash_leader(kill_at_us)
        .probe(kill_at_us, watch_takeover, "watch takeover")
    )
    result = run_timeline(
        sift_spec(cores=cores, scale=scale),
        WORKLOADS[workload],
        clients,
        duration_us,
        events=schedule,
        scale=scale,
        seed=seed,
    )
    serving = marks.get("serving")  # None: no successor took over in the run
    return {
        "series": [[t, ops] for t, ops in result.series],
        "events": [[t, label] for t, label in result.events],
        "killed_s": (marks["killed"] - result.base_us) / 1e6,
        "serving_s": None if serving is None else (serving - result.base_us) / 1e6,
        "replayed": marks.get("replayed"),
    }


def _live_pool_run(
    shards: int,
    backups: int,
    provisioning_delay_us: float,
    faults: int,
    fault_gap_us: float,
    scale: BenchScale,
    seed: int,
) -> dict:
    """One live-pool repetition: staggered coordinator crashes, measured
    promotion waits, and the :class:`PoolAccountant` replay of the same
    fault times.  Everything returned is deterministic in *seed*."""
    from repro.api import Cluster
    from repro.cluster.backups import PoolAccountant

    cluster = Cluster.build(
        "sharded",
        seed=seed,
        scale=scale,
        shards=shards,
        backups=backups,
        provisioning_delay_us=provisioning_delay_us,
        name=f"live{shards}-g",
    )
    service = cluster.inner
    sim = cluster.sim
    router = cluster.client()
    crash_times_us: List[float] = []

    def driver():
        yield from service.wait_until_serving(20 * SEC)
        for index in range(8):
            yield from router.put(b"live:%d" % index, b"v%d" % index)
        base = sim.now
        for fault in range(faults):
            due = base + (fault + 1) * fault_gap_us
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            # Round-robin over shards; make sure the crash hits a live
            # coordinator so every scheduled fault charges the pool.
            target = service.groups[fault % shards]
            yield from target.wait_until_serving(
                faults * provisioning_delay_us + 20 * SEC
            )
            target.crash_coordinator()
            crash_times_us.append(sim.now)
        while service.pool.promotions < faults:
            yield sim.timeout(50 * MS)
        yield from service.wait_until_serving(
            faults * provisioning_delay_us + 20 * SEC
        )
        for index in range(8):
            value = yield from router.get(b"live:%d" % index)
            if value != b"v%d" % index:
                raise AssertionError(f"lost live:{index} across promotions")

    cluster.run(driver(), deadline_us=(faults + 2) * (provisioning_delay_us + 20 * SEC))
    service.stop()

    pool = service.pool
    model = PoolAccountant(backups, provision_s=provisioning_delay_us / 1e6)
    for crash_us in crash_times_us:
        model.fault(crash_us / 1e6)
    detections = [
        record.request_us - crash_us
        for record, crash_us in zip(pool.promotion_log, crash_times_us)
    ]
    return {
        "live_per_fault_us": pool.recovery_wait_us_per_fault(),
        "model_per_fault_us": model.per_fault_s() * 1e6,
        "live_waits": pool.waits,
        "model_waits": model.waits,
        "promotions": pool.promotions,
        "detection_mean_us": sum(detections) / len(detections) if detections else 0.0,
        "crash_times_us": crash_times_us,
        "promotion_waits_us": [record.wait_us for record in pool.promotion_log],
    }


def live_pool_point(
    shards: int,
    backups: int,
    provisioning_delay_us: float,
    faults: int,
    fault_gap_us: float,
    repetitions: int,
    scale: BenchScale,
    seed: int,
) -> dict:
    """One fig8live cell: the live shared pool vs the Figure 8 trace
    model at one shard count.

    The model replays the *live run's own* fault times through
    :class:`~repro.cluster.backups.PoolAccountant`, so the only gap
    between the two numbers is failure detection (watchdog heartbeat
    reads), which the live measurement excludes by charging waits from
    promotion request time.  ``agrees`` demands the means match within
    the seeded repetition band plus twice the mean detection latency.
    """
    reps = [
        _live_pool_run(
            shards, backups, provisioning_delay_us, faults, fault_gap_us,
            scale, seed + repetition,
        )
        for repetition in range(repetitions)
    ]
    live = [r["live_per_fault_us"] for r in reps]
    model = [r["model_per_fault_us"] for r in reps]
    live_mean = sum(live) / len(live)
    model_mean = sum(model) / len(model)
    band_us = max(live) - min(live)
    detection_us = max(r["detection_mean_us"] for r in reps)
    tolerance_us = band_us + 2.0 * detection_us
    return {
        "live_per_fault_us": live_mean,
        "model_per_fault_us": model_mean,
        "band_us": band_us,
        "tolerance_us": tolerance_us,
        "agrees": abs(live_mean - model_mean) <= tolerance_us,
        "repetitions": reps,
    }


def fig8live_params(smoke: bool, _scale: BenchScale) -> dict:
    """(backups, delay, gap, reps, swept shard counts) for fig8live.

    The gap is deliberately shorter than the provisioning delay so the
    middle faults hit an exhausted pool and the *waiting* path — where
    the live pool and the trace model can actually disagree — is
    exercised, not just the idle-spare fast path.
    """
    if smoke:
        return dict(
            backups=1,
            provisioning_delay_us=1.5 * SEC,
            fault_gap_us=0.4 * SEC,
            repetitions=2,
            shards=[2, 3],
        )
    return dict(
        backups=1,
        provisioning_delay_us=5 * SEC,
        fault_gap_us=1.25 * SEC,
        repetitions=3,
        shards=[2, 4],
    )


def fig8live_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """One point per shard count, each taking one fault more than it
    has shards."""
    preset = {key: value for key, value in params.items() if key != "shards"}
    return [
        Point(
            key=f"sharded/{shards}",
            fn=live_pool_point,
            kwargs=dict(preset, shards=shards, faults=shards + 1, scale=scale, seed=seed),
        )
        for shards in params["shards"]
    ]


def openloop_point(
    shards: int,
    cores: int,
    workload: str,
    offered_ops_per_sec: float,
    n_clients: int,
    max_inflight: int,
    queue_limit: int,
    rate_ops_per_sec,
    window_us: float,
    scale: BenchScale,
    seed: int,
) -> dict:
    """One figMclients cell: open-loop arrivals at one offered rate.

    Runs the sharded spec under the vectorized
    :class:`~repro.workloads.openloop.OpenLoopEngine` — an
    *n_clients*-strong simulated population whose aggregate arrivals
    form a Poisson process at *offered_ops_per_sec* — and returns the
    offered-vs-achieved accounting plus the per-shard p50/p99/p99.9
    SLO summaries.
    """
    from repro.workloads.openloop import AdmissionControl

    spec = system_spec("sharded", scale=scale, cores=cores, shards=shards)
    return run_openloop(
        spec,
        WORKLOADS[workload],
        offered_ops_per_sec=offered_ops_per_sec,
        n_clients=n_clients,
        scale=scale,
        seed=seed,
        window_us=window_us,
        admission=AdmissionControl(
            max_inflight=max_inflight,
            queue_limit=queue_limit,
            rate_ops_per_sec=rate_ops_per_sec,
        ),
    )


def figMclients_params(smoke: bool, _scale: BenchScale) -> dict:
    """The figMclients sweep preset.

    ``base_ops_per_sec`` is the (empirically calibrated) saturation
    throughput of the sharded smoke spec under the default in-flight
    window; the swept multipliers take the service from comfortable
    underload through the knee into firm overload, where the
    token-bucket throttle (pinned at ``throttle_ratio`` x base) and the
    bounded per-shard queues both shed.  The population is what the
    north-star asks for: at least a million simulated clients.
    """
    return dict(
        cores=12,
        shards=2,
        workload="read-heavy",
        n_clients=1_000_000 if smoke else 2_000_000,
        base_ops_per_sec=600_000.0,
        levels=[["x0.25", 0.25], ["x0.75", 0.75], ["x1.0", 1.0], ["x1.5", 1.5]],
        max_inflight=16,
        queue_limit=512,
        throttle_ratio=1.2,
        window_us=1 * MS,
    )


def figMclients_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """One point per offered-load level, underload first."""
    swept = ("base_ops_per_sec", "levels", "throttle_ratio")
    preset = {key: value for key, value in params.items() if key not in swept}
    base = params["base_ops_per_sec"]
    return [
        Point(
            key=f"sharded/{label}",
            fn=openloop_point,
            kwargs=dict(
                preset,
                offered_ops_per_sec=base * multiplier,
                rate_ops_per_sec=base * params["throttle_ratio"],
                scale=scale,
                seed=seed,
            ),
        )
        for label, multiplier in params["levels"]
    ]


def hotspot_point(
    autoscale: bool,
    cores: int,
    shards: int,
    workload: str,
    offered_ops_per_sec: float,
    n_clients: int,
    hot_span: int,
    max_inflight: int,
    queue_limit: int,
    window_us: float,
    warmup_us: float,
    before_us: float,
    settle_us: float,
    after_us: float,
    static_backups: int,
    provisioning_delay_us: float,
    fault_at_us,
    reconciler_interval_us: float,
    imbalance_factor: float,
    min_split_ops: int,
    forward_window_us: float,
    pool_max: int,
    scale: BenchScale,
    seed: int,
) -> dict:
    """One figHotspot cell: a mid-run hotspot shift, elastic or static.

    Both cells run the same seed, the same open-loop offered load, the
    same warmup fault burst (two coordinator crashes on the cold shard,
    closer together than the pool's provisioning delay), and the same
    :meth:`HotspotZipfSampler.retarget` onto shard 0 between the
    ``before`` and ``after`` measurement windows.  The only difference
    is the control plane: the *static* cell keeps a peak-provisioned
    pool (*static_backups*) and a fixed topology, while the *autoscale*
    cell starts with a one-spare pool and a :class:`Reconciler` that
    must resize it from the observed burst and split the hot shard out
    from under the live load.

    A closed-loop probe client records a linearizability history across
    the whole run (its keys migrate with everyone else's), and the
    epilogue reads back every acked probe write plus the hottest data
    keys — the zero-acked-write-loss gate.
    """
    from repro.bench.lincheck import RecordingClient, check_history
    from repro.control import Reconciler, ReconcilerConfig
    from repro.workloads.generator import HotspotZipfSampler
    from repro.workloads.openloop import AdmissionControl, OpenLoopEngine

    spec = system_spec(
        "sharded",
        scale=scale,
        cores=cores,
        shards=shards,
        backups=static_backups if not autoscale else 1,
        provisioning_delay_us=provisioning_delay_us,
    )
    cluster, sampler = boot(
        spec,
        scale,
        seed,
        lambda cluster: HotspotZipfSampler(scale.keys, cluster.ring, scale.zipf_theta),
    )
    sim, fabric, service = cluster.sim, cluster.fabric, cluster.inner
    engine = OpenLoopEngine(
        fabric,
        service,
        WORKLOADS[workload],
        sampler,
        offered_ops_per_sec=offered_ops_per_sec,
        n_clients=n_clients,
        window_us=window_us,
        admission=AdmissionControl(
            max_inflight=max_inflight, queue_limit=queue_limit
        ),
        value_bytes=scale.value_bytes,
        name="hotspot-auto" if autoscale else "hotspot-static",
        elastic=autoscale,
    )
    value = b"v" * scale.value_bytes  # what boot() preloaded under every key

    # Closed-loop probe client: serialized puts/gets over a small key
    # set, every outcome recorded for the Wing-Gong checker.
    probe = RecordingClient(cluster.client(name="hotspot-probe", cores=2))
    probe_host = probe.client.host
    probing = True
    PROBE_KEYS = [b"probe%02d" % i for i in range(16)]

    def probe_loop():
        count = 0
        while probing:
            key = PROBE_KEYS[count % len(PROBE_KEYS)]
            if count % 4 == 3:
                yield from probe.get(key)
            else:
                yield from probe.put(key, b"p%08d" % count)
            count += 1
            yield sim.timeout(2 * MS)

    engine.start()
    probe_host.spawn(probe_loop(), name="hotspot-probe")
    reconciler = None
    if autoscale:
        reconciler = Reconciler(
            fabric,
            service,
            ReconcilerConfig(
                interval_us=reconciler_interval_us,
                imbalance_factor=imbalance_factor,
                min_split_ops=min_split_ops,
                max_shards=shards + 2,
                pool_min=1,
                pool_max=pool_max,
                forward_window_us=forward_window_us,
            ),
        )
        reconciler.start()

    # Warmup carries the fault burst: back-to-back crashes of the
    # *cold* shard's coordinator, each landing as soon as the shard is
    # serving again, so the requests space by detection + recovery —
    # closer than the provisioning delay — and a one-spare pool
    # demonstrably queues where the Fig. 8 replay asks for more.  Both
    # cells take the same burst; crash-when-serving (rather than fixed
    # times) keeps the second crash from whiffing on a cell whose first
    # promotion is a few milliseconds slower.
    base = sim.now
    cold_shard = service.ring.shards[-1]

    def fault_burst():
        for at_us in sorted(fault_at_us):
            if sim.now < base + at_us:
                yield sim.timeout(base + at_us - sim.now)
            while service.coordinators().get(cold_shard) is None:
                yield sim.timeout(5 * MS)
            service.crash_coordinator(shard=cold_shard)

    probe_host.spawn(fault_burst(), name="hotspot-faults")
    sim.run(until=base + warmup_us)

    engine.begin_measurement(phase="before")
    sim.run(until=sim.now + before_us)
    engine.end_measurement()
    before_slo = engine.slo_summary()

    # The shift: re-aim the hot ranks at shard 0's keys.  No RNG is
    # consumed, so the arrival stream is byte-identical to the static
    # cell's; only where the mass lands changes.
    sampler.retarget(0, hot_span)
    shift_at_us = sim.now - base
    sim.run(until=sim.now + settle_us)

    engine.begin_measurement(phase="after")
    sim.run(until=sim.now + after_us)
    engine.end_measurement()
    after_slo = engine.slo_summary()
    engine.stop()
    if reconciler is not None:
        reconciler.stop()
    probing = False
    sim.run(until=sim.now + 20 * MS)  # drain in-flight ops

    # Epilogue: zero-acked-write-loss.  Every acked probe write must
    # read back as its last acked value, and the hottest data keys must
    # still hold the preloaded/engine value after split + migration.
    probe_ops = len(probe.history.ops) - probe.failures
    readback = {"checked": len(probe.acked), "lost": 0, "missing": 0}

    def readback_loop():
        readback["lost"] = len((yield from probe.read_back()))
        for index in range(min(64, scale.keys)):
            result = yield from probe.client.get(sampler.key(index))
            if result != value:
                readback["missing"] += 1

    check = probe_host.spawn(readback_loop(), name="hotspot-readback")
    sim.run_until_settled(check, deadline=30 * SEC)
    if not check.ok:
        raise RuntimeError(f"figHotspot readback failed: {check.exception}")
    lincheck_ok, offending = check_history(probe.history)

    def tail(slo: dict, label: str) -> float:
        worst = 0.0
        for ops in slo.values():
            for summary in ops.values():
                worst = max(worst, float(summary.get(label, 0.0)))
        return worst

    pool = service.pool
    out = {
        "autoscale": bool(autoscale),
        "offered_ops_per_sec": offered_ops_per_sec,
        "achieved_ops_per_sec": engine.achieved_ops_per_sec(),
        "completed": engine.counts["completed"],
        "errors": engine.counts["errors"],
        "shift_at_us": shift_at_us,
        "slo": {"before": before_slo, "after": after_slo},
        "tails": {
            phase: {label: tail(slo, label) for label in ("p99", "p99.9")}
            for phase, slo in (("before", before_slo), ("after", after_slo))
        },
        "pool": {
            "capacity": pool.capacity,
            "vm_seconds": pool.vm_seconds(),
            "promotions": len(pool.promotion_log),
            "max_wait_us": max(
                (p.wait_us for p in pool.promotion_log), default=0.0
            ),
        },
        "control": {
            "shards": len(service.ring.shards),
            "ring_version": service.ring.version,
            "splits": reconciler.splits if reconciler else 0,
            "merges": reconciler.merges if reconciler else 0,
            "pool_resizes": reconciler.pool_resizes if reconciler else 0,
        },
        "probe": {
            "ops": probe_ops,
            "failures": probe.failures,
            "lincheck_ok": bool(lincheck_ok),
            "offending_key": (
                offending.decode("ascii", "replace") if offending else None
            ),
            **readback,
        },
    }
    return out


def figHotspot_params(smoke: bool, _scale: BenchScale) -> dict:
    """The figHotspot scenario preset.

    The offered rate is chosen so one shard carrying the retargeted hot
    set (~85% of the mass) runs past its lane's closed-loop capacity
    while the balanced layout stays comfortably under it — the tail gap
    the reconciled cell must close by splitting.  The fault burst spaces
    two cold-shard coordinator crashes closer than the provisioning
    delay, so the Fig. 8 replay demands a second spare.
    """
    common = dict(
        cores=12,
        shards=2,
        workload="mixed",
        hot_span=512,
        max_inflight=8,
        queue_limit=256,
        window_us=1 * MS,
        warmup_us=350 * MS,
        static_backups=3,
        provisioning_delay_us=150 * MS,
        fault_at_us=[5 * MS, 70 * MS],
        reconciler_interval_us=25 * MS,
        imbalance_factor=1.5,
        min_split_ops=512,
        forward_window_us=50 * MS,
        pool_max=4,
    )
    if smoke:
        return dict(
            common,
            offered_ops_per_sec=200_000.0,
            n_clients=200_000,
            before_us=50 * MS,
            settle_us=80 * MS,
            after_us=200 * MS,
        )
    return dict(
        common,
        offered_ops_per_sec=200_000.0,
        n_clients=1_000_000,
        before_us=100 * MS,
        settle_us=80 * MS,
        after_us=400 * MS,
    )


def figHotspot_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """Two cells, static first (the declared merge order)."""
    return [
        Point(
            key=f"sharded/{label}",
            fn=hotspot_point,
            kwargs=dict(params, autoscale=autoscale, scale=scale, seed=seed),
        )
        for label, autoscale in (("static", False), ("autoscaled", True))
    ]


# -- figure params and point lists (declared order == serial order == merge order)


def saturation_clients(smoke: bool, scale: BenchScale) -> int:
    """Closed-loop clients at a peak-throughput point (fig5, fig7 and
    the cache and applier ablations).

    Those figures' claims are about saturated leaders, and
    ``SMOKE_SCALE.clients`` (12) does not saturate one, so the pinned
    runs use the smallest count at which every Figure 5 claim holds: at
    16 the leaders serve 1.23x EPaxos's read-heavy throughput, at 24
    1.6x.  24 is also what fig5ablate has always used.
    """
    return 24 if smoke else scale.clients


def _cell(key: str, system: str, workload: str, clients: int, cores: int,
          scale: BenchScale, seed: int, fn=throughput_point, **options) -> Point:
    """One (system, workload, clients, cores) cell of a grid, run by *fn*."""
    kwargs = dict(system=system, workload=workload, clients=clients,
                  cores=cores, scale=scale, seed=seed, **options)
    return Point(key=key, fn=fn, kwargs=kwargs)


def fig5_params(smoke: bool, scale: BenchScale) -> dict:
    clients = saturation_clients(smoke, scale)
    return {"cores": 12, "workloads": list(WORKLOADS), "clients": clients}


def fig5_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """System-major, workload-minor.  EPaxos has no leader to saturate
    and is driven with three times the clients of the others."""
    clients = params["clients"]
    return [
        _cell(f"{system}/{mix}", system, mix,
              clients * 3 if system == "epaxos" else clients, params["cores"],
              scale, seed)
        for system in FIG5_SYSTEMS
        for mix in params["workloads"]
    ]


def fig5ablate_params(_smoke: bool, _scale: BenchScale) -> dict:
    """Write-only Sift at 24 clients; the grid is in declared (= merge)
    order: both batching layers off, each alone, then the full stack."""
    return {
        "cores": 12,
        "workload": "write-only",
        "clients": 24,
        "grid": [
            ["plain", False, False],
            ["doorbell", False, True],
            ["coalesce", True, False],
            ["coalesce+doorbell", True, True],
        ],
    }


def fig5ablate_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """The 2x2 batching-ablation grid: Sift throughput with the WAL
    append-coalescing and doorbell-batching layers toggled
    independently."""
    return [
        _cell(f"sift/{key}", "sift", params["workload"], params["clients"],
              params["cores"], scale, seed,
              kv_overrides={"coalesce_appends": True} if coalesce else None,
              sift_overrides={"doorbell_batching": True} if doorbell else None)
        for key, coalesce, doorbell in params["grid"]
    ]


FIG7_SYSTEMS = ("raft-r", "sift", "sift-ec")


def fig7_params(smoke: bool, scale: BenchScale) -> dict:
    """``cores_by_f`` is ``[[F, core counts], ...]`` of the Fig. 7 grid.
    The pinned smoke grid keeps the whole F=1 curve (Table 2's band and
    fig5's cells are on it) and, of F=2, the 8- and 12-core points its
    gates read: six points fewer keep bench-smoke's wall time in budget."""
    swept = [6, 8, 10, 12]  # Table 2's 8/10/12 plus 6
    return {
        "workload": "read-heavy",
        "clients": saturation_clients(smoke, scale),
        "systems": list(FIG7_SYSTEMS),
        "cores_by_f": [[1, swept], [2, [8, 12] if smoke else swept]],
        "table2_cores": {
            "raft-r": TABLE2[("raft", 1)]["node"].cores,
            "sift": TABLE2[("sift", 1)]["cpu"].cores,
            "sift-ec": TABLE2[("sift-ec", 1)]["cpu"].cores,
        },
    }


def fig7_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """Peak throughput of every (F, system, cores), in that nesting.
    The F=1 cells at 12 cores are fig5's read-heavy cells."""
    return [
        _cell(f"{system}/f{f}/c{cores}", system, params["workload"],
              params["clients"], cores, scale, seed, f=f)
        for f, core_counts in params["cores_by_f"]
        for system in params["systems"]
        for cores in core_counts
    ]


def knob_sweep_params(
    workload: str, knob: str, values, smoke: bool, scale: BenchScale
) -> dict:
    """Sift at 12 cores under *workload*, sweeping the
    :class:`~repro.kv.config.KvConfig` field *knob* over *values* (the
    cache and applier ablations)."""
    return {
        "cores": 12,
        "workload": workload,
        "clients": saturation_clients(smoke, scale),
        "knob": knob,
        "values": list(values),
    }


def knob_sweep_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """One cell per swept value.  The cell at the field's default is
    fig5's."""
    knob = params["knob"]
    return [
        _cell(f"sift/{knob}={value}", "sift", params["workload"],
              params["clients"], params["cores"], scale, seed,
              kv_overrides={knob: value})
        for value in params["values"]
    ]


def fig6_params(smoke: bool, _scale: BenchScale) -> dict:
    """Fig. 6's loaded point: the client count that drives Sift to ~90%
    of its mixed-workload peak.  At the pinned smoke scale that is 21
    (312k of a 346k ops/s peak); 8 was a third of saturation and
    queued nothing."""
    return {"cores": 12, "high_load_clients": 21 if smoke else 28}


def fig6_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """System-major, low load then high load."""
    return [
        _cell(f"{system}/{load}", system, "mixed", clients, params["cores"],
              scale, seed, fn=latency_point)
        for system in FIG6_SYSTEMS
        for load, clients in (("low", 1), ("high", params["high_load_clients"]))
    ]


def fig6path_params(smoke: bool, scale: BenchScale) -> dict:
    """fig6's, plus the one cell whose raw spans ride along for the
    committed Perfetto export (the paper's own system at its low-load
    point) and how many spans are kept, in recording order.  A traced
    smoke window records tens of thousands of spans; the first N
    already cover many complete operations and keep the committed trace
    reviewable."""
    return dict(fig6_params(smoke, scale), trace_cell="sift/low", trace_span_cap=2000)


def fig6path_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """The fig6 grid, traced: the same cells through :func:`critpath_point`."""
    export = {params["trace_cell"]: params["trace_span_cap"]}
    return [
        point._replace(
            fn=critpath_point,
            kwargs=dict(point.kwargs, export_spans=export.get(point.key, 0)),
        )
        for point in fig6_points(params, scale, seed)
    ]


def fig8_params(_smoke: bool, _scale: BenchScale) -> dict:
    return {
        "groups": [10, 100, 500, 1000, 2000, 3000],
        "backups": [0, 2, 4, 6, 8, 12, 16, 20],
        "repetitions": 10,
    }


def backup_pool_point(groups: List[int], backups: List[int], repetitions: int) -> dict:
    """Figure 8 whole: ``[[backups, s/fault], ...]`` per group count.
    One point, since every cell replays the same failure trace."""
    sweep = sweep_backup_pool(groups, backups, repetitions=repetitions)
    return {
        f"{count} groups": [[c.backups, c.recovery_time_per_fault_s] for c in row]
        for count, row in sweep.items()
    }


def fig8_points(params: dict, _scale: BenchScale, _seed: int) -> List[Point]:
    return [Point(key="trace-model", fn=backup_pool_point, kwargs=dict(params))]


def cost_params(f: int, _smoke: bool, _scale: BenchScale) -> dict:
    return {"f": f, "providers": ["aws", "gcp"]}


def cost_points(params: dict, _scale: BenchScale, _seed: int) -> List[Point]:
    """Figures 9-10: one exact-arithmetic point per cloud provider."""
    return [
        Point(key=provider, fn=relative_costs,
              kwargs={"provider": provider, "f": params["f"]})
        for provider in params["providers"]
    ]


def fig11_params(smoke: bool, _scale: BenchScale) -> dict:
    """The memory-node failure schedule of fig11 and fig11sweep.  Smoke
    compresses the full-size schedule so CI sees the same three phases
    (dip, copy-back contention, recovery) in ~1.5 simulated seconds."""
    return {
        "cores": 12,
        "clients": 6 if smoke else 10,
        "kill_at_us": (0.3 if smoke else 0.6) * SEC,
        "restart_at_us": (0.45 if smoke else 0.9) * SEC,
        "duration_us": (1.5 if smoke else 3.0) * SEC,
        "workload": "read-heavy",
    }


def fig11_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """One point: the timeline is a single run."""
    return [
        Point(key="sift/memnode-failure", fn=memnode_failure_point,
              kwargs=dict(params, scale=scale, seed=seed))
    ]


def fig12_params(smoke: bool, _scale: BenchScale) -> dict:
    """The coordinator failure schedule; smoke compresses it the way
    :func:`fig11_params` does."""
    return {
        "cores": 12,
        "clients": 6 if smoke else 10,
        "kill_at_us": (0.3 if smoke else 0.6) * SEC,
        "duration_us": (1.5 if smoke else 4.0) * SEC,
        "workload": "read-heavy",
    }


def fig12_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    return [
        Point(key="sift/coordinator-failure", fn=coordinator_failure_point,
              kwargs=dict(params, scale=scale, seed=seed))
    ]


def fig11sweep_params(smoke: bool, scale: BenchScale) -> dict:
    """fig11's schedule at Fm = 2 (five memory nodes, four live sources
    once one fails) so each doubling of ``partitions`` genuinely doubles
    the source links feeding the rejoining node — with fig11's Fm = 1
    only two sources exist and the curve would flatten at two
    partitions."""
    return {"f": 2, **fig11_params(smoke, scale), "partitions": [1, 2, 4]}


def fig11sweep_points(params: dict, scale: BenchScale, seed: int) -> List[Point]:
    """The recovery-time-vs-partitions sweep, plus the exact fig11 point.

    The ``sift/memnode-failure`` anchor re-runs fig11's timeline with
    the same seed and scale: its result must stay byte-identical to the
    fig11 artifact, pinning the partitions=1 path to the pre-sweep
    numbers (``tests/test_recovery_determinism.py`` compares the two
    committed baselines).
    """
    schedule = {k: v for k, v in params.items() if k not in ("f", "partitions")}
    return fig11_points(schedule, scale, seed) + [
        Point(
            key=f"sift/recovery-f2-p{partitions}",
            fn=recovery_sweep_point,
            kwargs=dict(schedule, scale=scale, seed=seed, f=params["f"],
                        partitions=partitions),
        )
        for partitions in params["partitions"]
    ]
