"""Per-layer metrics: what the counted and the profiled pass turn into.

The counted pass runs the measured window with a ``repro.obs`` metrics
registry installed; every number here derived from it is a count of
simulated work and repeats exactly for a seed.  The profiled pass runs
the same window under ``cProfile``; its call counts repeat, its times
are host times and are reported only as shares (profiling costs 2-3x).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Tuple

from repro.obs import MetricsRegistry

__all__ = [
    "PACKAGES",
    "UNCOVERED",
    "PER_LAYER",
    "package_of",
    "counted_metrics",
    "profiled_metrics",
    "layer_table",
]

#: Profile buckets: the packages some workload exercises, plus ``other``
#: (builtins, the standard library, numpy, and repro modules outside
#: these packages).  ``bench`` also holds this benchmark's own files.
PACKAGES = (
    "sim", "net", "rdma", "core", "kv", "storage", "shard",
    "workloads", "chaos", "obs", "bench", "other",
)
#: Packages no workload runs; listed so they are not silently absent.
UNCOVERED = ("ec", "persist", "control", "cluster", "baselines")

_HERE = os.path.dirname(os.path.abspath(__file__))


def _per_layer():
    """(name, unit, better) of every per-layer metric, in print order."""
    low, high = "lower", "higher"
    rows = [
        ("sim_downtime_ms", "ms", low),
        ("sim_recovery_ms", "ms", low),
        ("sim.cpu_core_us_per_op", "us/op", low),
        ("sim.coordinator_cpu_util", "ratio", low),
        ("sim.events_per_op", "count/op", low),
        ("sim.cancels_per_op", "count/op", low),
        ("sim.host_events_per_s", "1/s", high),
        ("net.messages_per_op", "count/op", low),
        ("net.bytes_per_op", "B/op", low),
        ("net.rpc_calls_per_op", "count/op", low),
        ("net.dropped", "count", low),
        ("rdma.verbs_per_op", "count/op", low),
        ("rdma.write_verbs_per_op", "count/op", low),
        ("rdma.read_verbs_per_op", "count/op", low),
        ("rdma.cas_verbs_per_op", "count/op", low),
        ("rdma.bytes_per_op", "B/op", low),
        ("rdma.doorbells_per_op", "count/op", low),
        ("rdma.nic_core_us_per_op", "us/op", low),
        ("core.entries_logged_per_op", "count/op", low),
        ("core.applies_posted_per_op", "count/op", low),
        ("core.nodes_marked_dead", "count", low),
        ("core.nodes_recovered", "count", high),
        ("core.recovery_bytes", "B", low),
        ("core.recovery_fragments", "count", low),
        ("core.recovery_copy_us", "us", low),
        ("kv.cache_hit_ratio", "ratio", high),
        ("kv.get_calls_per_op", "count/op", low),
        ("kv.put_calls_per_op", "count/op", low),
        ("workloads.offered", "count", high),
        ("workloads.admitted", "count", high),
        ("workloads.completed", "count", high),
        ("workloads.errors", "count", low),
        ("workloads.retries", "count", low),
        ("workloads.shed_queue", "count", low),
        ("workloads.shed_throttle", "count", low),
        ("workloads.inflight_peak", "count", low),
        ("workloads.clients_active", "count", high),
        ("shard.lane_imbalance_ratio", "ratio", low),
    ]
    for package in PACKAGES:
        rows.append((f"{package}.self_share", "ratio", low))
        rows.append((f"{package}.calls_per_op", "count/op", low))
    rows += [
        ("bench.build_s", "s", low),
        ("bench.preload_s", "s", low),
        ("bench.loadgen_build_s", "s", low),
        ("bench.warmup_s", "s", low),
        ("bench.measure_s", "s", low),
        ("bench.host_noise_ratio", "ratio", low),
        ("obs.registry_overhead_ratio", "ratio", low),
        ("obs.profile_overhead_ratio", "ratio", low),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()


def package_of(filename: str) -> str:
    """The profile bucket of a code object's file path."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        package = path[at + len(marker):].split("/", 1)[0]
        return package if package in PACKAGES else "other"
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "bench"
    return "other"


def _counter_sum(items: Iterable[Tuple[str, float]], name: str, contains: str = "") -> float:
    """Sum of every series of *name* whose label set contains *contains*."""
    total = 0.0
    for key, value in items:
        if (key == name or key.startswith(name + "{")) and contains in key:
            total += value
    return total


def counted_metrics(registry: MetricsRegistry, run) -> Dict[str, float]:
    """Layer counts of one counted pass, whose window *registry* covered."""
    items = registry.items()
    ops = run.completed

    def per_op(name: str, contains: str = "") -> float:
        return _counter_sum(items, name, contains) / ops

    # CPU of the coordinators serving at window end, as a share of
    # their cores over the window (mean across shards).
    utils = [
        _counter_sum(items, "cpu.core_us", f"pool={name}.cpu}}") / (cores * run.window_us)
        for name, cores in run.coordinator_cores.items()
    ]
    hits = _counter_sum(items, "kv.cache.hits")
    misses = _counter_sum(items, "kv.cache.misses")
    loadgen = run.loadgen
    metrics = {
        "sim.cpu_core_us_per_op": per_op("cpu.core_us", ".cpu}"),
        "sim.coordinator_cpu_util": sum(utils) / len(utils) if utils else 0.0,
        "net.messages_per_op": per_op("net.messages"),
        "net.bytes_per_op": per_op("net.bytes"),
        "net.rpc_calls_per_op": per_op("rpc.calls"),
        "net.dropped": _counter_sum(items, "net.dropped"),
        "rdma.verbs_per_op": per_op("rdma.verbs"),
        "rdma.write_verbs_per_op": per_op("rdma.verbs", "type=write"),
        "rdma.read_verbs_per_op": per_op("rdma.verbs", "type=read"),
        "rdma.cas_verbs_per_op": per_op("rdma.verbs", "type=cas"),
        "rdma.bytes_per_op": per_op("rdma.bytes"),
        "rdma.doorbells_per_op": per_op("rdma.doorbells"),
        "rdma.nic_core_us_per_op": per_op("cpu.core_us", ".rnic.tx}"),
        "core.entries_logged_per_op": per_op("repmem.entries_logged"),
        "core.applies_posted_per_op": per_op("repmem.applies_posted"),
        "core.nodes_marked_dead": _counter_sum(items, "repmem.nodes_marked_dead"),
        "core.nodes_recovered": _counter_sum(items, "repmem.nodes_recovered"),
        "core.recovery_bytes": _counter_sum(items, "recovery.bytes"),
        "core.recovery_fragments": _counter_sum(items, "recovery.fragments"),
        "core.recovery_copy_us": _counter_sum(items, "recovery.copy_us"),
        # Of the coordinators serving at window end, since each started.
        "kv.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "kv.get_calls_per_op": per_op("rpc.calls", "method=kv.get"),
        "kv.put_calls_per_op": per_op("rpc.calls", "method=kv.put"),
        "shard.lane_imbalance_ratio": loadgen["lane_imbalance_ratio"],
        "sim_downtime_ms": run.sim["sim_downtime_ms"],
        "sim_recovery_ms": run.sim["sim_recovery_ms"],
    }
    for key in (
        "offered", "admitted", "completed", "errors", "retries",
        "shed_queue", "shed_throttle", "inflight_peak", "clients_active",
    ):
        metrics[f"workloads.{key}"] = loadgen[key]
    return metrics


def _entries(profiler) -> List:
    return [e for e in profiler.getstats() if e.callcount]


def _file_and_name(code) -> Tuple[str, str]:
    """(file path, function name) of a profile entry's code; builtins
    arrive as plain strings and have no file."""
    if isinstance(code, str):
        return "", code
    return code.co_filename, code.co_name


def profiled_metrics(profiler, ops: int) -> Dict[str, float]:
    """Self-time shares and call counts per package of one profiled pass."""
    self_s = dict.fromkeys(PACKAGES, 0.0)
    calls = dict.fromkeys(PACKAGES, 0)
    events = cancels = 0
    for entry in _entries(profiler):
        filename, function = _file_and_name(entry.code)
        package = package_of(filename)
        self_s[package] += entry.inlinetime
        calls[package] += entry.callcount
        if filename.replace("\\", "/").endswith("/repro/sim/engine.py"):
            if function == "schedule":
                events += entry.callcount
            elif function == "cancel":
                cancels += entry.callcount
    total = sum(self_s.values())
    metrics: Dict[str, float] = {}
    for package in PACKAGES:
        metrics[f"{package}.self_share"] = self_s[package] / total if total else 0.0
        metrics[f"{package}.calls_per_op"] = calls[package] / ops
    metrics["sim.events_per_op"] = events / ops
    metrics["sim.cancels_per_op"] = cancels / ops
    return metrics


def layer_table(profiler) -> Dict[str, Dict[str, float]]:
    """Inclusive seconds of calls from each package into each other one.

    ``table[caller][callee]`` sums, over every function of *caller*, the
    time spent inside the functions of *callee* it called directly
    (including whatever those went on to call).  These are the spans at
    the layer boundaries: what entering ``rdma`` from ``core`` costs,
    for example.  Recursion through a boundary is counted once per
    crossing, so a column can exceed the window total.
    """
    table: Dict[str, Dict[str, float]] = {}
    for entry in _entries(profiler):
        caller = package_of(_file_and_name(entry.code)[0])
        for sub in entry.calls or ():
            callee = package_of(_file_and_name(sub.code)[0])
            if callee != caller:
                row = table.setdefault(caller, {})
                row[callee] = row.get(callee, 0.0) + sub.totaltime
    return {
        caller: dict(sorted(row.items())) for caller, row in sorted(table.items())
    }
