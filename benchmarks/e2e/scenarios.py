"""The four workloads of the end-to-end benchmark, and one run of one.

A run is: build the cluster, preload it, build the load generator, warm
up, then drive the measured window as equal slices of simulated time,
each slice timed on the host CPU clock.  The same seed makes slice *i*
do identical work in every run, which is what lets ``run.py`` take the
per-slice minimum across rounds as its noise-robust host time.

Built only on surfaces ROADMAP item 2 keeps: ``repro.api.Cluster``,
``repro.workloads``, ``repro.chaos.FaultSchedule``,
``repro.bench.metrics``, ``repro.bench.lincheck``,
``repro.bench.calibration`` and the ``repro.obs`` registry
(``test_e2e.py`` holds that line with an AST check).
"""

from __future__ import annotations

import dataclasses
import gc
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.api import Cluster
from repro.bench.calibration import SMOKE_SCALE
from repro.bench.lincheck import History, Op, check_history
from repro.bench.metrics import Metrics, percentile
from repro.chaos import FaultSchedule
from repro.errors import ReproError
from repro.net.rpc import DEFAULT_RPC_LATENCY
from repro.obs import MetricsRegistry, SloHistogram, collecting, publish_run
from repro.sim.units import MS, SEC
from repro.workloads import (
    WORKLOADS,
    AdmissionControl,
    ClientPool,
    KeySampler,
    OpenLoopEngine,
    StripedZipfSampler,
    ZipfSampler,
)

__all__ = ["Scenario", "SCENARIOS", "Run", "Probe", "CorrectnessError", "run_scenario"]

SCALE = SMOKE_SCALE  # 4,096 keys x 992 B values, Zipf 0.99, 20 ms warm-up
COORDINATOR_CORES = 12
#: The fabric's own seed (network jitter, election back-off) is fixed;
#: ``--seed`` reaches only the load generator's named RNG streams.
FABRIC_SEED = 0
#: Measured window = this many equal, separately timed slices.
SLICES = 20
#: Poll period of the downtime / recovery watchers (simulated time).
WATCH_POLL_US = 100.0
PROBE_KEYS = [b"probe%02d" % i for i in range(16)]
PROBE_PERIOD_US = 2 * MS
MEMORY_NODE = 2  # the memory node fault_timeline crashes and restarts


class CorrectnessError(Exception):
    """The run's outputs are wrong; the command must fail."""


class Scenario(NamedTuple):
    """One named workload (see README.md for why each exists)."""

    name: str
    why: str
    system: str
    options: dict  #: extra ``Cluster.build`` options
    mix: str
    open_loop: bool
    clients: int  #: closed loop: client count; open loop: population
    measure_us: float
    offered_ops_per_s: float = 0.0
    admission: Optional[AdmissionControl] = None
    #: ``(k, kind)``: inject *kind* at the end of measured slice *k*.
    faults: tuple = ()


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="kv_read_heavy",
            why="closed loop, 12 clients, 90/10: reads are one RPC served "
            "from the coordinator cache, so net+kv do the model work",
            system="sift",
            options={},
            mix="read-heavy",
            open_loop=False,
            clients=12,
            measure_us=150 * MS,
        ),
        Scenario(
            name="kv_write_only",
            why="closed loop, 12 clients, all puts: every op is a WAL append "
            "fanned out to three memory nodes, so rdma+core carry the load",
            system="sift",
            options={},
            mix="write-only",
            open_loop=False,
            clients=12,
            measure_us=60 * MS,
        ),
        Scenario(
            name="openloop_overload",
            why="open loop at 1.5x saturation on 2 shards: admission, lanes "
            "and shard do real work and refusals are the failure mode",
            system="sharded",
            options={"shards": 2},
            mix="read-heavy",
            open_loop=True,
            clients=1_000_000,
            measure_us=40 * MS,
            offered_ops_per_s=900_000.0,
            admission=AdmissionControl(
                max_inflight=16, queue_limit=512, rate_ops_per_sec=720_000.0
            ),
        ),
        Scenario(
            name="fault_timeline",
            why="open loop through a memory-node crash+restart and a "
            "coordinator crash: the only run of recovery, election and replay",
            system="sift",
            options={},
            mix="mixed",
            open_loop=True,
            clients=100_000,
            measure_us=800 * MS,
            offered_ops_per_s=20_000.0,
            admission=AdmissionControl(max_inflight=16, queue_limit=512),
            faults=(
                (1, "crash_memory_node"),
                (2, "restart_memory_node"),
                (13, "crash_coordinator"),
            ),
        ),
    )
}


class Run(NamedTuple):
    """Everything one run of one workload produced."""

    #: Deterministic for a seed: must repeat bit-for-bit across runs.
    sim: Dict[str, float]
    attempted: int
    failed: int
    completed: int
    window_us: float  #: simulated length of the measured window
    #: Host CPU seconds of each set-up part and of the warm-up.
    build_s: float
    preload_s: float
    loadgen_build_s: float
    warmup_s: float
    #: Host CPU seconds per measured slice.
    slice_s: List[float]
    #: Load-generator accounting (``workloads.*`` layer metrics).
    loadgen: Dict[str, float]
    #: Counted pass only: cores of each coordinator serving at window end,
    #: and the modelled delays the run's simulated latencies depend on.
    coordinator_cores: Dict[str, int]
    injected_delays: dict


class Probe:
    """A closed-loop client whose every outcome is kept for the checker."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.client = cluster.client(name="e2e-probe", cores=2)
        self.history = History()
        self.acked: Dict[bytes, bytes] = {}  #: key -> last acknowledged value
        self.unacked: Dict[bytes, set] = {}  #: key -> values of failed puts
        self.running = True
        self.client.host.spawn(self._loop(), name="e2e-probe")

    def _loop(self):
        """Serialized puts and gets over a few keys, one every 2 ms.

        A failed call is recorded as never-responded: it may or may not
        have taken effect, which the checker treats as optional.
        """
        sim = self.cluster.sim
        count = 0
        while self.running:
            key = PROBE_KEYS[count % len(PROBE_KEYS)]
            read = count % 4 == 3
            payload = None if read else b"p%08d" % count
            invoked = sim.now
            try:
                if read:
                    result = yield from self.client.get(key)
                    self.history.record(Op(key, "get", result, invoked, sim.now))
                else:
                    yield from self.client.put(key, payload)
                    self.history.record(Op(key, "put", payload, invoked, sim.now))
                    self.acked[key] = payload
            except ReproError:
                kind = "get" if read else "put"
                self.history.record(Op(key, kind, payload, invoked, None))
                if not read:
                    self.unacked.setdefault(key, set()).add(payload)
            count += 1
            yield sim.timeout(PROBE_PERIOD_US)

    def check(self, label: str) -> None:
        """Every acked write reads back and the history is linearizable.

        The read-back joins the history, so the checker also holds it
        to the order of the writes; a key may legitimately read back a
        put that failed at the client but took effect.
        """
        cluster, sim = self.cluster, self.cluster.sim
        self.running = False
        cluster.run(until=sim.now + 20 * MS)  # drain in-flight ops
        if not self.acked:
            raise CorrectnessError(f"{label}: the probe client acked no write")

        def readback():
            lost = []
            for key, expect in sorted(self.acked.items()):
                invoked = sim.now
                got = yield from self.client.get(key)
                self.history.record(Op(key, "get", got, invoked, sim.now))
                if got != expect and got not in self.unacked.get(key, ()):
                    lost.append(key)
            return lost

        lost = cluster.run(readback(), deadline_us=30 * SEC)
        if lost:
            raise CorrectnessError(f"{label}: acked probe writes lost: {lost}")
        ok, offending = check_history(self.history)
        if not ok:
            raise CorrectnessError(
                f"{label}: probe history not linearizable at key {offending!r}"
            )


def _injected_delays(cluster: Cluster) -> dict:
    """The modelled delays behind every simulated latency of this run.

    Read from the objects the run used, so the artifact (and the README
    table copied from it) cannot drift from the configuration.
    """
    groups = getattr(cluster.inner, "groups", None)
    group = groups[0] if groups else cluster.inner
    services = group.serving_coordinator().host.services
    nic, endpoint, config = services["rnic"], services["rpc:kv"], group.config

    def linear(model) -> dict:
        return {
            "base_us": model.base_us,
            "bytes_per_us": model.bytes_per_us,
            "jitter": model.jitter,
        }

    return {
        "rpc_one_way": linear(DEFAULT_RPC_LATENCY),
        "rpc_endpoint_cpu_us": {"recv": endpoint.recv_cpu_us, "send": endpoint.send_cpu_us},
        "rdma_one_way": linear(nic.propagation),
        "rdma_link_bytes_per_us": nic.bytes_per_us,
        "rdma_verb_overhead_us": nic.verb_overhead_us,
        "rdma_verb_timeout_us": nic.timeout_us,
        "coordinator_cpu_costs": dataclasses.asdict(config.costs),
        "heartbeat_write_interval_us": config.heartbeat_write_interval_us,
        "heartbeat_read_interval_us": config.heartbeat_read_interval_us,
        "missed_heartbeats_allowed": config.missed_heartbeats_allowed,
        "election_backoff_us": [
            config.election_backoff_min_us,
            config.election_backoff_max_us,
        ],
        "recovery_chunk_bytes": config.recovery_chunk_bytes,
        "recovery_parallelism": config.recovery_parallelism,
    }


def _fault_schedule(scenario: Scenario, measure_us: float, marks: Dict[str, float]):
    """The scenario's faults plus the watchers that time their repair.

    ``marks`` receives ``sim_downtime_ms`` (coordinator crash until a
    coordinator serves again) and ``sim_recovery_ms`` (memory-node
    restart until its region is live again), in simulated time.
    """

    def watch(group, key: str, repaired: Callable[[], bool]) -> None:
        sim = group.fabric.sim
        started = sim.now

        def poll():
            while not repaired():
                yield sim.timeout(WATCH_POLL_US)
            marks[key] = (sim.now - started) / MS

        sim.spawn(poll(), name=f"e2e-watch-{key}")

    def watch_downtime(group) -> None:
        watch(group, "sim_downtime_ms", lambda: group.serving_coordinator() is not None)

    def watch_recovery(group) -> None:
        def live() -> bool:
            coordinator = group.serving_coordinator()
            return (
                coordinator is not None
                and coordinator.repmem.states[MEMORY_NODE] == "live"
            )

        watch(group, "sim_recovery_ms", live)

    schedule = FaultSchedule()
    for after_slice, kind in scenario.faults:
        at_us = measure_us * after_slice / SLICES
        if kind == "crash_memory_node":
            schedule.crash_memory_node(at_us, MEMORY_NODE)
        elif kind == "restart_memory_node":
            schedule.restart_memory_node(at_us, MEMORY_NODE)
            schedule.probe(at_us, watch_recovery, "watch recovery")
        elif kind == "crash_coordinator":
            schedule.crash_coordinator(at_us)
            schedule.probe(at_us, watch_downtime, "watch downtime")
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    return schedule


def _open_loop_account(engine: OpenLoopEngine, registry: Optional[MetricsRegistry]):
    """(latency metrics, attempted, failed, ``workloads.*`` counts) of an
    open-loop window.  A refused arrival counts as failed: it misses any
    latency limit."""
    snap = engine.snapshot()
    loadgen = {
        key: int(snap.counter(key))
        for key in (
            "offered", "admitted", "completed", "errors", "retries",
            "shed_queue", "shed_throttle",
        )
    }
    loadgen["inflight_peak"] = max(engine.inflight_peaks().values())
    loadgen["clients_active"] = int(snap.gauge("clients_active"))
    failed = loadgen["errors"] + loadgen["shed_queue"] + loadgen["shed_throttle"]
    latency: Dict[str, float] = {}
    if registry is not None:
        # Latency lives in per-(lane, op) SLO histograms, which only
        # exist while a registry is installed; their merge is exact.
        merged = SloHistogram("e2e.latency_us")
        for key, state in sorted(registry.dump()["slo"].items()):
            if key.startswith(f"{engine.name}.latency_us"):
                merged.merge_state(state)
        latency = {
            "sim_p50_us": merged.percentile(50.0),
            "sim_p99_us": merged.percentile(99.0),
        }
        per_lane = [
            sum(summary["count"] for summary in ops.values())
            for ops in engine.slo_summary().values()
        ]
        loadgen["lane_imbalance_ratio"] = max(per_lane) / (sum(per_lane) / len(per_lane))
    return latency, loadgen["offered"], failed, loadgen


def _closed_loop_account(metrics: Metrics, retries: int, clients: int):
    """The same four for a closed-loop window (exact latency samples)."""
    attempted = metrics.completed + metrics.errors
    samples = [x for op in sorted(metrics.latencies) for x in metrics.latencies[op]]
    latency = {
        "sim_p50_us": percentile(samples, 50.0),
        "sim_p99_us": percentile(samples, 99.0),
    }
    loadgen = {
        "offered": attempted,
        "admitted": attempted,
        "completed": metrics.completed,
        "errors": metrics.errors,
        "retries": retries,
        "shed_queue": 0,
        "shed_throttle": 0,
        "inflight_peak": clients,
        "clients_active": clients,
        "lane_imbalance_ratio": 1.0,
    }
    return latency, attempted, metrics.errors, loadgen


def run_scenario(
    scenario: Scenario,
    seed: int,
    window_scale: float = 1.0,
    registry: Optional[MetricsRegistry] = None,
    profiler=None,
) -> Run:
    """One run of *scenario*: set up, warm up, measure, check.

    The timed rounds pass neither *registry* nor *profiler*.  The
    counted pass passes a registry, installed for the measured window
    only (so its counters cover exactly that window) and needed for the
    open-loop latency histograms; the profiled pass passes a
    ``cProfile.Profile``, enabled for the same span.  *window_scale*
    shrinks the window, for the tests.  Raises
    :class:`CorrectnessError` when an output is wrong.
    """
    clock = time.process_time
    measure_us = scenario.measure_us * window_scale
    mix = WORKLOADS[scenario.mix]
    # Drop the previous run's dead cluster first: peak RSS is then one
    # cluster's, whenever the collector would have got round to it.
    gc.collect()

    t0 = clock()
    cluster = Cluster.build(
        scenario.system,
        seed=FABRIC_SEED,
        scale=SCALE,
        cores=COORDINATOR_CORES,
        **scenario.options,
    )
    cluster.wait_ready()
    t1 = clock()
    ring = getattr(cluster.inner, "ring", None)
    if ring is not None:
        sampler: KeySampler = StripedZipfSampler(SCALE.keys, ring, SCALE.zipf_theta)
    else:
        sampler = ZipfSampler(SCALE.keys, SCALE.zipf_theta)
    t2 = clock()
    value = b"v" * SCALE.value_bytes
    cluster.preload((sampler.key(i), value) for i in range(SCALE.keys))
    t3 = clock()
    # The seed names the generator, hence its RNG streams
    # (``<name>:arrivals``, ``<name>:0`` ...): same seed, same inputs,
    # and nothing else in the simulation sees it.
    name = f"load-s{seed}"
    metrics = Metrics(seed=seed)
    engine: Optional[OpenLoopEngine] = None
    pool: Optional[ClientPool] = None
    if scenario.open_loop:
        engine = OpenLoopEngine(
            cluster.fabric,
            cluster.inner,
            mix,
            sampler,
            offered_ops_per_sec=scenario.offered_ops_per_s,
            n_clients=scenario.clients,
            admission=scenario.admission,
            value_bytes=SCALE.value_bytes,
            name=name,
        )
        engine.start()
    else:
        pool = ClientPool(
            cluster.fabric,
            cluster.inner,
            scenario.clients,
            mix,
            sampler,
            metrics,
            value_bytes=SCALE.value_bytes,
            name=name,
            client_factory=cluster.spec.client_factory,
        )
        pool.start()
    t4 = clock()

    probe = Probe(cluster) if scenario.faults else None

    sim = cluster.sim
    cluster.run(until=sim.now + SCALE.warmup_us)
    t5 = clock()

    marks: Dict[str, float] = {}
    pending = _fault_schedule(scenario, measure_us, marks).to_timeline_events()
    base = sim.now
    slice_s: List[float] = []
    gc.collect()  # GC stays on (users pay it); every window starts clean
    with collecting(registry) if registry is not None else nullcontext():
        if engine is not None:
            engine.begin_measurement()
        metrics.begin(base)
        if profiler is not None:
            profiler.enable()
        try:
            for index in range(1, SLICES + 1):
                offset_us = measure_us * index / SLICES
                started = clock()
                cluster.run(until=base + offset_us)
                slice_s.append(clock() - started)
                while pending and pending[0][0] <= offset_us:
                    pending.pop(0)[2](cluster.inner)
        finally:
            if profiler is not None:
                profiler.disable()
        metrics.end(sim.now)
        if engine is not None:
            engine.end_measurement()
        repairs = {"sim_downtime_ms": 0.0, "sim_recovery_ms": 0.0}
        if scenario.faults:
            repairs = dict(marks)  # only what was repaired inside the window
        coordinator_cores: Dict[str, int] = {}
        delays: dict = {}
        if registry is not None:
            publish_run(registry, cluster.fabric, cluster.inner)
            delays = _injected_delays(cluster)
            hosts = cluster.fabric.hosts
            for host in cluster.topology().placement.values():
                if host is not None:
                    coordinator_cores[host] = hosts[host].cpu.cores
    window_us = sim.now - base

    if engine is not None:
        engine.stop()
        sim_metrics, attempted, failed, loadgen = _open_loop_account(engine, registry)
    else:
        pool.stop()
        sim_metrics, attempted, failed, loadgen = _closed_loop_account(
            metrics, pool.retries, scenario.clients
        )
    completed, errors = loadgen["completed"], loadgen["errors"]
    sim_metrics["sim_ops_per_s"] = completed / (window_us / SEC)

    if completed < 1:
        raise CorrectnessError(f"{scenario.name}: no operation completed")
    if probe is not None:
        probe.check(scenario.name)
        missing = sorted({"sim_downtime_ms", "sim_recovery_ms"} - set(repairs))
        if missing:
            raise CorrectnessError(
                f"{scenario.name}: fault never repaired inside the window: {missing}"
            )
    elif errors:
        raise CorrectnessError(f"{scenario.name}: {errors} operations failed")
    sim_metrics.update(repairs)

    return Run(
        sim=sim_metrics,
        attempted=attempted,
        failed=failed,
        completed=completed,
        window_us=window_us,
        build_s=t1 - t0,
        preload_s=t3 - t2,
        loadgen_build_s=(t2 - t1) + (t4 - t3),
        warmup_s=t5 - t4,
        slice_s=slice_s,
        loadgen=loadgen,
        coordinator_cores=coordinator_cores,
        injected_delays=delays,
    )
