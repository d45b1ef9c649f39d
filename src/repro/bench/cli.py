"""Command-line experiment runner.

``python -m repro.bench.cli <experiment>`` regenerates one of the
paper's tables/figures (or an ablation) and prints it.  Scale comes from
the ``REPRO_BENCH_*`` environment variables (see
:mod:`repro.bench.calibration`), or is pinned with ``--smoke``.

Every figure command also writes a versioned ``BENCH_<figure>.json``
artifact (see :mod:`repro.obs.artifact`) into ``--out-dir``: the
simulated numbers, a metrics-registry snapshot collected during the
run, the seeds, the parameters, the git SHA and the wall clock.  CI's
``bench-smoke`` job regenerates every ``baseline`` figure of
``FIGURES`` at ``--smoke`` scale and diffs them against
``benchmarks/baselines/`` with :mod:`repro.obs.compare` (plus a
byte-diff of the exported ``TRACE_fig6path.json`` Perfetto trace).

A figure's *gates* are named pure predicates over the artifact's
``(simulated, params)`` sections, listed beside it in ``FIGURES`` and
evaluated by :func:`failed_gates` only: a miss prints ``GATE FAIL
<figure>.<gate>`` and makes :func:`main` exit 1.  Each claim §6 makes
about a figure is stated here, once, as a gate whose docstring is the
paper sentence.  Because gates read nothing but the artifact,
``tests/test_figure_gates.py`` checks the same predicates against the
committed baselines, and the full-scale check of the paper's evaluation
is the same command without ``--smoke``.

Examples::

    python -m repro.bench.cli table1
    python -m repro.bench.cli fig9 fig10
    REPRO_BENCH_MEASURE_MS=300 python -m repro.bench.cli fig5
    python -m repro.bench.cli throughput --system sift-ec --workload mixed
    python -m repro.bench.cli fig5 fig6 fig7 fig11 fig12 --jobs 2   # full scale
    python -m repro.bench.cli fig5 fig6 fig11 --smoke --out-dir bench_artifacts
    python -m repro.bench.cli --refresh-baselines

``--jobs N`` fans a figure's independent points across worker processes
via :mod:`repro.bench.parallel`; per-point metric registries are merged
in declared point order, so the artifact is byte-identical at any job
count.
"""

from __future__ import annotations

import os
import argparse
import sys
import time
from dataclasses import asdict
from typing import Callable, List, NamedTuple, Tuple

from repro.baselines import characteristics_table
from repro.bench.calibration import SMOKE_SCALE, BenchScale
from repro.bench.parallel import run_points
from repro.bench.points import (
    FIG5_SYSTEMS,
    FIG6_SYSTEMS,
    FIG5ABLATE_GRID,
    TRACE_EXPORT_CELL,
    TRACE_SPAN_CAP,
    fig5_points,
    fig5ablate_points,
    fig6_high_load_clients,
    fig6_points,
    fig6path_points,
    fig8live_params,
    fig8live_points,
    figHotspot_params,
    figHotspot_points,
    figMclients_params,
    figMclients_points,
    fig7_cores_by_f,
    fig7_points,
    fig11_points,
    fig11_timings,
    fig11sweep_points,
    fig12_points,
    fig12_timings,
    knob_sweep_points,
    saturation_clients,
    throughput_point,
    FIG7_SYSTEMS,
    RECOVERY_SWEEP_PARTITIONS,
)
from repro.bench.report import bar_table, kv_table, series_table, sparkline
from repro.cluster import relative_costs
from repro.cluster.backups import sweep_backup_pool
from repro.cluster.provision import TABLE2, TARGET_THROUGHPUT, machine_table
from repro.obs.artifact import write_artifact
from repro.obs.critpath import STAGES
from repro.obs.export import write_chrome_trace
from repro.obs.registry import MetricsRegistry, collecting
from repro.workloads import WORKLOADS

__all__ = ["main"]


def _progress(key: str) -> None:
    print(f"  [{key}] done", file=sys.stderr)


def _run(args, points):
    """``{key: value}`` of a figure's points, fanned across ``--jobs``."""
    return run_points(points, jobs=args.jobs, progress=_progress)


# Each cmd_* returns None (no artifact: static tables) or a dict
# ``{"simulated": ..., "params": ...}``; _run_one() checks the figure's
# gates on it, adds the registry snapshot, seed, wall clock and scale,
# then writes BENCH_<figure>.json.
#
# A gate is ``gate(simulated, params) -> bool``, named by its function
# name, stating its property in its docstring.  A loaded artifact
# iterates ``simulated`` in sorted-key order and a live run in declared
# order, so gates address cells by keys built from ``params``, never by
# position.


def cmd_table1(_args, _scale):
    print(characteristics_table())
    return None


def cmd_table2(_args, _scale):
    rows = []
    for f in (1, 2):
        rows.append((f"-- F={f} (target {TARGET_THROUGHPUT[f]:,} ops/s) --", ""))
        for name, spec in machine_table(f):
            rows.append((name, f"{spec.cores} cores, {spec.memory_gb} GB"))
    print(kv_table("Table 2: normalized machine configurations", rows))
    return None


def cmd_fig5(args, scale):
    mixes = list(WORKLOADS)
    clients = saturation_clients(args.smoke, scale)
    results = _run(args, fig5_points(scale, args.seed, clients))
    simulated = {
        name: {mix: results[f"{name}/{mix}"] for mix in mixes}
        for name in FIG5_SYSTEMS
    }
    rows = {
        name: [simulated[name][mix]["ops_per_sec"] for mix in mixes]
        for name in FIG5_SYSTEMS
    }
    print(bar_table("Figure 5: throughput by workload (F=1)", mixes, rows))
    return {
        "simulated": simulated,
        "params": {"cores": 12, "workloads": mixes, "clients": clients},
    }


def _tput(simulated, system, mix):
    return simulated[system][mix]["ops_per_sec"]


#: The systems whose reads a leader serves locally, and the two mixes
#: §6.3.2 makes its read claims on.
LEADER_SYSTEMS = ("raft-r", "sift", "sift-ec")
READ_MIXES = ("read-heavy", "read-only")


def every_operation_succeeded(simulated, _params):
    """No cell of the Figure 5 grid recorded a failed operation."""
    return not any(
        cell["errors"] for row in simulated.values() for cell in row.values()
    )


def epaxos_flat_across_mixes(simulated, params):
    """§6.3.2: EPaxos is workload-independent (a read costs the same
    network round trips as a write): its best mix is within 1.25x of
    its worst."""
    rates = [_tput(simulated, "epaxos", mix) for mix in params["workloads"]]
    return max(rates) < 1.25 * min(rates)


def write_only_order(simulated, _params):
    """§6.3.2, write-only: "EPaxos performs better than the leader and
    RDMA-based systems"; Raft-R beats Sift, which pays for background
    applies, and Sift beats Sift EC, which also pays for encoding."""
    rates = [
        _tput(simulated, system, "write-only")
        for system in ("epaxos", "raft-r", "sift", "sift-ec")
    ]
    return all(faster > slower for faster, slower in zip(rates, rates[1:]))


def leaders_beat_epaxos_on_reads(simulated, _params):
    """§6.3.2: Sift's and Raft-R's read throughput is "far higher than a
    state-of-the-art, non-RDMA consensus protocol for read operations".
    The paper's read-only gap is ~2.3x; the gate is a conservative 1.5x
    on both read mixes (EXPERIMENTS.md names the divergence)."""
    return all(
        _tput(simulated, leader, mix) > 1.5 * _tput(simulated, "epaxos", mix)
        for mix in READ_MIXES
        for leader in ("sift", "raft-r")
    )


def sift_tracks_raft_on_reads(simulated, _params):
    """§6.3.2: "We limit the effect of remote reads through the cache,
    resulting in read throughput similar to Raft-R": Sift is within
    (0.8x, 1.25x) of Raft-R on both read mixes."""
    return all(
        0.8 < _tput(simulated, "sift", mix) / _tput(simulated, "raft-r", mix) < 1.25
        for mix in READ_MIXES
    )


def reads_beat_writes(simulated, _params):
    """Every leader-based system is faster read-only than write-only;
    only EPaxos is flat."""
    return all(
        _tput(simulated, system, "read-only") > _tput(simulated, system, "write-only")
        for system in LEADER_SYSTEMS
    )


def cmd_fig6(args, scale):
    high_load_clients = fig6_high_load_clients(args.smoke)
    results = _run(args, fig6_points(scale, args.seed, high_load_clients))
    simulated = {}
    rows = []
    for name in FIG6_SYSTEMS:
        per_load = {}
        for load in ("low", "high"):
            r = results[f"{name}/{load}"]
            per_load[load] = r
            rows.append(
                (
                    f"{name}/{load}",
                    [
                        (1, r["read_p50"] or 0.0),
                        (2, r["read_p95"] or 0.0),
                        (3, r["write_p50"] or 0.0),
                        (4, r["write_p95"] or 0.0),
                    ],
                )
            )
        simulated[name] = per_load
    print(
        series_table(
            "Figure 6: latency (us) at 1 client and ~90% load",
            "metric (1=read p50, 2=read p95, 3=write p50, 4=write p95)",
            "microseconds",
            dict(rows),
        )
    )
    return {
        "simulated": simulated,
        "params": {"cores": 12, "high_load_clients": high_load_clients},
    }


def _low_load(simulated, metric):
    return [simulated[system]["low"][metric] for system in LEADER_SYSTEMS]


def low_load_latencies_similar(simulated, _params):
    """§6.3.3, 1 client: "the cost of writes is similar for all systems"
    (one RDMA round trip to replicate), and so are reads (the cache
    serves most of Sift's): the RDMA systems' write medians, and their
    read medians, lie within 2x of each other."""
    return all(
        max(medians) < 2.0 * min(medians)
        for medians in (_low_load(simulated, op) for op in ("write_p50", "read_p50"))
    )


def ec_never_beats_sift(simulated, _params):
    """§6.3.3: Sift EC's writes cost slightly more than Sift's
    (encoding).  Here the KV WAL commits unencoded (§5.1), so the
    premium is off the client's critical path and surfaces as
    background-apply contention under load: EC's 1-client write median
    and its loaded write p95 are never below Sift's (less 2 us / 5 us)."""
    sift, ec = simulated["sift"], simulated["sift-ec"]
    return (
        ec["low"]["write_p50"] >= sift["low"]["write_p50"] - 2.0
        and ec["high"]["write_p95"] >= sift["high"]["write_p95"] - 5.0
    )


def rpc_floor(simulated, _params):
    """§6.3.3 attributes ~50 us of every request to the RPC layer: no
    RDMA system's 1-client read median beats a 30 us floor."""
    return min(_low_load(simulated, "read_p50")) > 30.0


def epaxos_reads_equal_writes(simulated, _params):
    """§6.3.3 (in the text; the figure omits EPaxos): "latencies for
    reads and writes at low load are equivalent", and both are above
    the RDMA systems': the read median is within 50% of the write
    median and above Sift's."""
    epaxos = simulated["epaxos"]["low"]
    return (
        abs(epaxos["read_p50"] - epaxos["write_p50"]) <= 0.5 * epaxos["write_p50"]
        and epaxos["read_p50"] > simulated["sift"]["low"]["read_p50"]
    )


def sift_rises_more_than_raft_under_load(simulated, _params):
    """§6.3.3: at 90% of peak latencies rise for every RDMA system, and
    Sift's rise more than Raft-R's because background applies contend
    with the request path.  No system's loaded write p95 is below its
    1-client p95, and from 1 client to the loaded point Sift's write
    p50 and write p95 each grow by more microseconds than Raft-R's."""

    def rise(system, metric):
        return simulated[system]["high"][metric] - simulated[system]["low"][metric]

    return all(rise(system, "write_p95") >= 0 for system in LEADER_SYSTEMS) and all(
        rise("sift", metric) > rise("raft-r", metric)
        for metric in ("write_p50", "write_p95")
    )


def cmd_fig6path(args, scale):
    """Fig. 6, traced: per-stage critical-path latency attribution.

    Re-runs every fig6 cell with a tracer over the measurement window
    and walks each committed operation's span tree into exclusive
    per-stage segments (:mod:`repro.obs.critpath`).  The sift/low
    cell's raw spans are also written as a Perfetto/Chrome trace
    (``TRACE_fig6path.json``) next to the artifact.
    """
    high_load_clients = fig6_high_load_clients(args.smoke)
    results = _run(args, fig6path_points(scale, args.seed, high_load_clients))
    simulated = {}
    trace_spans = None
    rows = []
    for name in FIG6_SYSTEMS:
        per_load = {}
        for load in ("low", "high"):
            cell = dict(results[f"{name}/{load}"])
            spans = cell.pop("spans", None)
            if spans is not None:
                trace_spans = spans
            per_load[load] = cell
            for op, digest in cell["critical_path"].items():
                agg = digest["aggregate"]
                shares = "  ".join(
                    f"{stage} {agg['stages'][stage]['share'] * 100.0:4.1f}%"
                    for stage in STAGES
                    if stage in agg["stages"]
                )
                rows.append(
                    (
                        f"{name}/{load} {op}",
                        f"mean {agg['duration_us']['mean']:8.1f}us "
                        f"({agg['count']} ops)  {shares}",
                    )
                )
        simulated[name] = per_load
    print(kv_table("Figure 6 (path): critical-path latency attribution", rows))
    if trace_spans and not args.no_artifact:
        os.makedirs(args.out_dir, exist_ok=True)
        path = write_chrome_trace(
            os.path.join(args.out_dir, "TRACE_fig6path.json"),
            trace_spans,
            process_name=f"repro {TRACE_EXPORT_CELL}",
        )
        print(f"  wrote {path} ({len(trace_spans)} spans)", file=sys.stderr)
    return {
        "simulated": simulated,
        "params": {
            "cores": 12,
            "high_load_clients": high_load_clients,
            "trace_cell": TRACE_EXPORT_CELL,
            "trace_span_cap": TRACE_SPAN_CAP,
        },
    }


def rpc_layer_is_half_of_sift_latency(simulated, _params):
    """§6.3.3 attributes ~50 us, about half, of a request to the RPC
    layer: at 1 client the ``rpc_in`` + ``ack`` stages carry at least
    50% of a Sift get's and a Sift put's critical path."""
    ops = simulated["sift"]["low"]["critical_path"]
    return all(
        stages["rpc_in"]["share"] + stages["ack"]["share"] >= 0.5
        for stages in (digest["aggregate"]["stages"] for digest in ops.values())
    )


def cmd_fig5ablate(args, scale):
    """The batching ablation: WAL coalescing x doorbell batching.

    A committed 2x2 grid on Sift's write-only peak: each batching layer
    alone, and the full stack, against the plain per-record, per-verb
    stack.  The simulated speedup of the full stack is the repo's one
    deterministic perf floor (:func:`full_stack_speedup`).
    """
    results = _run(args, fig5ablate_points(scale, args.seed))
    simulated = {}
    rows = []
    plain = results["sift/plain"]["ops_per_sec"]
    for key, coalesce, doorbell in FIG5ABLATE_GRID:
        cell = results[f"sift/{key}"]
        simulated[key] = {
            "coalesce_appends": coalesce, "doorbell_batching": doorbell, **cell
        }
        speedup = cell["ops_per_sec"] / plain if plain else 0.0
        rows.append(
            (
                f"sift/{key}",
                f"{cell['ops_per_sec']:12,.0f} ops/s  ({speedup:.3f}x plain)",
            )
        )
    print(kv_table("Figure 5 (ablation): append coalescing x doorbell batching", rows))
    return {
        "simulated": simulated,
        "params": {
            "cores": 12,
            "workload": "write-only",
            "clients": 24,
            "grid": [list(entry) for entry in FIG5ABLATE_GRID],
        },
    }


def full_stack_speedup(simulated, params):
    """coalesce+doorbell reaches >= 1.25x the plain stack's ops/s."""
    grid = params["grid"]  # plain first, the full stack last
    plain, full = simulated[grid[0][0]], simulated[grid[-1][0]]
    return full["ops_per_sec"] >= 1.25 * plain["ops_per_sec"]


def cmd_fig7(args, scale):
    """Read-heavy peak throughput vs. provisioned cores, F in {1, 2}:
    "how Raft nodes and Sift CPU nodes should be provisioned to achieve
    equivalent performance".  The knees of these curves are what
    Table 2's 8/10/12-core choices and §6.4's cost comparison rest on,
    so Table 2's "normalized" claim is a gate over this grid's cells.
    """
    clients = saturation_clients(args.smoke, scale)
    cores_by_f = fig7_cores_by_f(args.smoke)
    results = _run(args, fig7_points(scale, args.seed, clients, cores_by_f))
    series = {
        f"{system} (F={f})": [
            (cores, results[f"{system}/f{f}/c{cores}"]["ops_per_sec"])
            for cores in core_counts
        ]
        for f, core_counts in cores_by_f
        for system in FIG7_SYSTEMS
    }
    print(series_table("Figure 7: read-heavy throughput vs. cores", "cores",
                       "ops/sec", series))
    return {
        "simulated": results,
        "params": {
            "workload": "read-heavy",
            "clients": clients,
            "systems": list(FIG7_SYSTEMS),
            "cores_by_f": cores_by_f,
            "table2_cores": {
                "raft-r": TABLE2[("raft", 1)]["node"].cores,
                "sift": TABLE2[("sift", 1)]["cpu"].cores,
                "sift-ec": TABLE2[("sift-ec", 1)]["cpu"].cores,
            },
        },
    }


def _at_cores(simulated, system, f, cores):
    return simulated[f"{system}/f{f}/c{cores}"]["ops_per_sec"]


def throughput_grows_with_cores(simulated, params):
    """Figure 7: read-heavy throughput grows with provisioned cores,
    then saturates.  For every system and F no step up in cores loses
    more than 10%, and the best point is over 1.05x the first point
    unless the curve starts saturated (above 300k ops/s)."""
    for f, core_counts in params["cores_by_f"]:
        for system in params["systems"]:
            rates = [_at_cores(simulated, system, f, c) for c in core_counts]
            if any(later <= 0.9 * earlier for earlier, later in zip(rates, rates[1:])):
                return False
            if max(rates) <= 1.05 * rates[0] and rates[0] <= 300_000:
                return False
    return True


def raft_leads_sift_leads_ec_at_8_cores(simulated, params):
    """Figure 7 / Table 2: for equal throughput Raft-R needs the fewest
    cores, Sift more, Sift EC the most (8 <= 10 <= 12).  At a fixed 8
    cores, for both F, Raft-R out-serves Sift and Sift out-serves
    Sift EC."""
    return all(
        _at_cores(simulated, "raft-r", f, 8)
        > _at_cores(simulated, "sift", f, 8)
        > _at_cores(simulated, "sift-ec", f, 8)
        for f, _core_counts in params["cores_by_f"]
    )


def f2_no_faster_than_f1(simulated, params):
    """F=2 replicates to five nodes instead of three and costs
    throughput at equal cores: at 12 cores no system's F=2 point is
    more than 1.1x its F=1 point."""
    return all(
        _at_cores(simulated, system, 2, 12) <= 1.1 * _at_cores(simulated, system, 1, 12)
        for system in params["systems"]
    )


def table2_cores_land_in_one_band(simulated, params):
    """Table 2: "Machine configurations for each system normalized for
    performance".  At Table 2's core counts (Raft-R 8, Sift 10,
    Sift EC 12; F=1) the slowest of the three systems serves more than
    0.6x the fastest."""
    rates = [
        _at_cores(simulated, system, 1, cores)
        for system, cores in params["table2_cores"].items()
    ]
    return min(rates) > 0.6 * max(rates)


def _knob_sweep(title: str, workload: str, knob: str, values) -> Callable:
    """The ``run`` of a one-knob Sift ablation (see ``knob_sweep_points``)."""

    def run(args, scale):
        clients = saturation_clients(args.smoke, scale)
        points = knob_sweep_points(workload, knob, values, clients, scale, args.seed)
        results = _run(args, points)
        params = {
            "cores": 12,
            "workload": workload,
            "clients": clients,
            "knob": knob,
            "values": list(values),
        }
        series = list(zip(values, _knob_rates(results, params)))
        print(series_table(title, knob, "ops/sec", {"sift": series}))
        return {"simulated": results, "params": params}

    return run


#: §6.3.2's coordinator cache, shrunk toward the remote-read-bound regime.
cmd_fig5cache = _knob_sweep(
    "Ablation: read-heavy throughput vs. cache size (fraction of key space)",
    "read-heavy", "cache_fraction", (0.0, 0.1, 0.5),
)

#: §4.2's concurrent background appliers, down to a serial apply pipeline.
cmd_fig5appliers = _knob_sweep(
    "Ablation: write-only throughput vs. concurrent appliers",
    "write-only", "apply_workers", (1, 2, 8),
)


def _knob_rates(simulated, params):
    """ops/s per swept value, in ``params["values"]`` order (ascending)."""
    return [
        simulated[f"sift/{params['knob']}={value}"]["ops_per_sec"]
        for value in params["values"]
    ]


def more_cache_never_hurts(simulated, params):
    """Each step up in cache size keeps at least 95% of the previous
    step's read-heavy throughput."""
    rates = _knob_rates(simulated, params)
    return all(later >= 0.95 * earlier for earlier, later in zip(rates, rates[1:]))


def half_cache_beats_no_cache(simulated, params):
    """§6.3.2: "We limit the effect of remote reads through the cache,
    resulting in read throughput similar to Raft-R".  The paper's 50%
    cache serves more than 1.1x the read-heavy throughput of running
    cache-less."""
    rates = _knob_rates(simulated, params)
    return rates[-1] > 1.1 * rates[0]


def concurrent_appliers_pay(simulated, params):
    """§4.2: "Updates to multiple keys can be applied concurrently
    through the locking of the local index table and bitmap
    structures".  Eight appliers serve more than 1.3x the write-only
    throughput of one, and a second applier keeps at least 95% of it."""
    one, two, *_more, eight = _knob_rates(simulated, params)
    return eight > 1.3 * one and two >= 0.95 * one


def cmd_fig8(_args, _scale):
    groups = [10, 100, 500, 1000, 2000, 3000]
    backups = [0, 2, 4, 6, 8, 12, 16, 20]
    sweep = sweep_backup_pool(groups, backups, repetitions=10)
    series = {
        f"{g} groups": [(c.backups, c.recovery_time_per_fault_s) for c in row]
        for g, row in sweep.items()
    }
    print(series_table("Figure 8: recovery time per fault", "backups", "s/fault", series))
    return {
        "simulated": {
            name: [[b, v] for b, v in points] for name, points in series.items()
        },
        "params": {"groups": groups, "backups": backups, "repetitions": 10},
    }


def _per_fault_s(simulated, groups, backups):
    return dict(map(tuple, simulated[f"{groups} groups"]))[backups]


def recovery_falls_with_pool_and_rises_with_groups(simulated, params):
    """§6.4.2: at every group count a larger backup pool never raises
    the recovery time per fault, and with no backups it rises with the
    number of groups that share the (empty) pool."""
    for groups in params["groups"]:
        times = [_per_fault_s(simulated, groups, b) for b in params["backups"]]
        if any(later > earlier + 1e-9 for earlier, later in zip(times, times[1:])):
            return False
    unpooled = [_per_fault_s(simulated, groups, 0) for groups in sorted(params["groups"])]
    return unpooled == sorted(unpooled)


def paper_pool_sizes_suffice(simulated, _params):
    """§6.4.2 sizes the pool to "prevent additional recovery time due
    to VM provisioning": 6 backups for 1000 groups and 20 for 3000 (the
    sizes §6.4.3's cost analysis uses) leave under 0.25 s per fault,
    and 2 for a 100-group fleet under 0.05 s; a too-small pool clearly
    does not suffice, 4 backups for 3000 groups costing over 0.25 s
    more than 20."""
    return (
        _per_fault_s(simulated, 1000, 6) < 0.25
        and _per_fault_s(simulated, 3000, 20) < 0.25
        and _per_fault_s(simulated, 100, 2) < 0.05
        and _per_fault_s(simulated, 3000, 4) > _per_fault_s(simulated, 3000, 20) + 0.25
    )


def cmd_fig8live(args, scale):
    """The live counterpart of fig8: real groups, a real promoting pool.

    Where fig8 replays a failure trace through the capacity model, this
    runs staggered coordinator crashes against a live
    :class:`~repro.shard.ShardedKvService` and reconciles the measured
    promotion waits with the same :class:`PoolAccountant` the model
    uses.  ``--shards`` overrides the swept shard counts.
    """
    params = fig8live_params(args.smoke)
    points = fig8live_points(scale, args.seed, args.smoke, shard_counts=args.shards)
    results = _run(args, points)
    rows = []
    for point in points:
        cell = results[point.key]
        rows.append(
            (
                point.key,
                f"live {cell['live_per_fault_us'] / 1e6:7.3f} s/fault  "
                f"model {cell['model_per_fault_us'] / 1e6:7.3f} s/fault  "
                f"{'agrees' if cell['agrees'] else 'DISAGREES'} "
                f"(tolerance {cell['tolerance_us'] / 1e6:.3f} s)",
            )
        )
    print(kv_table("Figure 8 (live): shared pool vs trace model", rows))
    return {
        "simulated": {point.key: results[point.key] for point in points},
        "params": {
            "backups": params["backups"],
            "provisioning_delay_us": params["provisioning_delay_us"],
            "fault_gap_us": params["fault_gap_us"],
            "repetitions": params["repetitions"],
            "shards": [p.kwargs["shards"] for p in points],
        },
    }


def live_pool_matches_model(simulated, params):
    """At every shard count the live pool agrees with the trace model."""
    return all(simulated[f"sharded/{n}"]["agrees"] for n in params["shards"])


def cmd_figMclients(args, scale):
    """Open-loop saturation sweep: a million-client population.

    Sweeps the offered arrival rate from underload through the
    saturation knee into firm overload against the sharded spec, driven
    by the vectorized :class:`~repro.workloads.openloop.OpenLoopEngine`
    ("heavy traffic from millions of users" as a regression-gated
    artifact; the four gates follow the function).
    """
    points = figMclients_points(scale, args.seed, args.smoke)
    results = _run(args, points)
    rows = []
    for point in points:
        cell = results[point.key]
        shed_total = sum(cell["shed"].values())
        p99s = "  ".join(
            f"{shard} p99 {ops.get('read', ops.get('write', {})).get('p99', 0.0):7.0f}us"
            for shard, ops in sorted(cell["slo"].items())
        )
        rows.append(
            (
                point.key,
                f"offered {cell['offered_ops_per_sec']:9,.0f}  "
                f"achieved {cell['achieved_ops_per_sec']:9,.0f} ops/s  "
                f"shed {shed_total:6d}  err {cell['errors']:4d}  {p99s}",
            )
        )
    print(kv_table("Figure Mclients: open-loop offered-load sweep", rows))
    return {
        "simulated": {point.key: results[point.key] for point in points},
        "params": {"cores": 12, **figMclients_params(args.smoke)},
    }


def _load_level(simulated, params, index):
    """The cell of the *index*-th offered-load level (underload first)."""
    return simulated[f"sharded/{params['levels'][index][0]}"]


def million_clients(_simulated, params):
    """The population is at least one million simulated clients."""
    return params["n_clients"] >= 1_000_000


def underload_keeps_up(simulated, params):
    """The lowest level sheds nothing and achieves >= 90% of its offer."""
    cell = _load_level(simulated, params, 0)
    return not sum(cell["shed"].values()) and (
        cell["achieved_ops_per_sec"] >= 0.9 * cell["offered_ops_per_sec"]
    )


def overload_sheds(simulated, params):
    """The highest level sheds and achieves less than it was offered
    (admission control engages instead of following the offered curve)."""
    cell = _load_level(simulated, params, -1)
    return sum(cell["shed"].values()) > 0 and (
        cell["achieved_ops_per_sec"] < cell["offered_ops_per_sec"]
    )


def every_level_records_slo(simulated, params):
    """Every level recorded its per-shard SLO histograms."""
    return all(
        simulated[f"sharded/{label}"]["slo"] for label, _multiplier in params["levels"]
    )


def cmd_figHotspot(args, scale):
    """Elastic control plane under a mid-run hotspot shift.

    Two cells share one seed and one scenario — a warmup coordinator
    fault burst, then a Zipf hotspot retargeted onto one shard at fixed
    offered load — and differ only in the control plane: *static* keeps
    a peak-provisioned backup pool and fixed topology, *autoscaled*
    starts lean and must reconcile (resize the pool from the observed
    burst, split the hot shard under live load).  The six gates follow
    the function.
    """
    points = figHotspot_points(scale, args.seed, args.smoke)
    results = _run(args, points)
    rows = []
    for point in points:
        cell = results[point.key]
        rows.append(
            (
                point.key,
                f"after p99.9 {cell['tails']['after']['p99.9']:8.0f}us  "
                f"pool {cell['pool']['vm_seconds']:5.2f} VM-s  "
                f"shards {cell['control']['shards']}  "
                f"splits {cell['control']['splits']}  "
                f"lost {cell['probe']['lost'] + cell['probe']['missing']}  "
                f"lincheck {'ok' if cell['probe']['lincheck_ok'] else 'FAIL'}",
            )
        )
    print(kv_table("Figure Hotspot: elastic vs static under a load shift", rows))
    return {
        "simulated": {point.key: results[point.key] for point in points},
        "params": {"cores": 12, **figHotspot_params(args.smoke)},
    }


def _hotspot_cells(simulated):
    return simulated["sharded/static"], simulated["sharded/autoscaled"]


def autoscaled_tail_beats_static(simulated, _params):
    """After the shift the autoscaled cell's worst p99.9 is strictly lower."""
    static, auto = _hotspot_cells(simulated)
    return auto["tails"]["after"]["p99.9"] < static["tails"]["after"]["p99.9"]


def autoscaled_pool_is_cheaper(simulated, _params):
    """The autoscaled pool costs fewer VM-seconds than static peak provisioning."""
    static, auto = _hotspot_cells(simulated)
    return auto["pool"]["vm_seconds"] < static["pool"]["vm_seconds"]


def reconciler_split_hot_shard(simulated, _params):
    """The reconciler split the hot shard and installed a new ring."""
    control = _hotspot_cells(simulated)[1]["control"]
    return control["splits"] >= 1 and control["ring_version"] >= 1


def reconciler_resized_pool(simulated, _params):
    """The reconciler resized the backup pool from the observed burst."""
    return _hotspot_cells(simulated)[1]["control"]["pool_resizes"] >= 1


def no_acked_write_lost(simulated, _params):
    """Both cells read back every acked probe write and hot data key."""
    return not any(
        cell["probe"]["lost"] or cell["probe"]["missing"]
        for cell in _hotspot_cells(simulated)
    )


def histories_linearizable(simulated, _params):
    """Both cells' probe histories pass the linearizability check."""
    return all(cell["probe"]["lincheck_ok"] for cell in _hotspot_cells(simulated))


PROVIDERS = ("aws", "gcp")
EC_SHARED = "sift-ec + shared backups"


def _cost_figure(title, f):
    """Print one of Figures 9-10 and return its payload."""
    costs = {provider: relative_costs(provider, f) for provider in PROVIDERS}
    labels = list(costs[PROVIDERS[0]])
    print(bar_table(
        title, labels,
        {p: [costs[p][label] for label in labels] for p in PROVIDERS}, unit="%",
    ))
    return {"simulated": costs, "params": {"f": f, "providers": list(PROVIDERS)}}


def cmd_fig9(_args, _scale):
    return _cost_figure("Figure 9: cost vs Raft-R (%), F=1", 1)


def cmd_fig10(_args, _scale):
    return _cost_figure("Figure 10: cost vs Raft-R (%), F=2", 2)


def _on_every_provider(simulated, params, holds):
    return all(holds(simulated[provider]) for provider in params["providers"])


def lone_group_costs_marginally_more(simulated, params):
    """§6.4.3, F=1: "a single Sift and Sift EC group requires marginally
    higher costs than a Raft-R group": Sift 0-20% more; Sift EC between
    5% less and 20% more (GCP's memory price lets EC break even)."""
    return _on_every_provider(
        simulated, params,
        lambda cost: 0 < cost["sift"] < 20 and -5 < cost["sift-ec"] < 20,
    )


def ec_and_shared_backups_save_35_percent(simulated, params):
    """§6.4.3, F=1: "once we introduce shared backup nodes and erasure
    codes, we see a cost reduction of up to 35%": shared backups alone
    already save, and with erasure codes the saving is within one point
    of 35% on both providers."""
    return _on_every_provider(
        simulated, params,
        lambda cost: cost["sift + shared backups"] < 0
        and abs(cost[EC_SHARED] + 35.0) <= 1.0,
    )


def each_technique_lowers_cost(simulated, params):
    """Figure 9's ordering: erasure codes lower the cost with and
    without shared backups, and shared backups lower plain Sift's."""
    return _on_every_provider(
        simulated, params,
        lambda cost: cost[EC_SHARED] < cost["sift + shared backups"] < cost["sift"]
        and cost["sift-ec"] < cost["sift"],
    )


def ec_alone_saves_13_percent(simulated, params):
    """§6.4.3, F=2: "A single Sift EC group now costs about 13% less
    than a Raft-R group": within five points of 13% on both providers."""
    return _on_every_provider(
        simulated, params, lambda cost: abs(cost["sift-ec"] + 13.0) <= 5.0
    )


def ec_and_shared_backups_save_56_percent(simulated, params):
    """§6.4.3, F=2: "When both erasure codes and shared backup nodes are
    used, a cost reduction of up to 56% is achieved": within one point
    of 56% on both providers."""
    return _on_every_provider(
        simulated, params, lambda cost: abs(cost[EC_SHARED] + 56.0) <= 1.0
    )


def _print_timeline(title, simulated):
    series = [(t, ops) for t, ops in simulated["series"]]
    print(series_table(title, "seconds", "ops/sec", {"sift": series}))
    print("timeline:", sparkline([ops for _t, ops in series]))
    print("events:", [(t, label) for t, label in simulated["events"]])


def _fig11_params(smoke):
    """The memory-node failure schedule (see points.fig11_timings for
    the full-size vs --smoke timings) as fig11's and fig11sweep's params."""
    kill_at, restart_at, duration, clients = fig11_timings(smoke)
    return {
        "cores": 12,
        "clients": clients,
        "kill_at_us": kill_at,
        "restart_at_us": restart_at,
        "duration_us": duration,
        "workload": "read-heavy",
    }


def cmd_fig11(args, scale):
    # One point: the timeline is a single run.
    results = _run(args, fig11_points(scale, args.seed, args.smoke))
    simulated = results["sift/memnode-failure"]
    _print_timeline(
        "Figure 11: read-heavy throughput during a memory node failure", simulated
    )
    print("recovery completed:", simulated["recovery_s"] is not None)
    return {"simulated": simulated, "params": _fig11_params(args.smoke)}


def _windows(series):
    """``(start_s, end_s, ops_per_sec)`` per window of a timeline; the
    width is the series' own step (§6.5 measures in 100 ms intervals)."""
    width = series[1][0] - series[0][0]
    return [(start, start + width, ops) for start, ops in series]


def _mean_rate(windows):
    return sum(ops for _start, _end, ops in windows) / len(windows)


def _pre_failure_rate(series, failed_s):
    """Mean ops/s over the windows that ended before the failure."""
    return _mean_rate([w for w in _windows(series) if w[1] <= failed_s])


def _or_never(mark_s):
    """A timeline mark in seconds, or +inf for one the run never reached
    (a node that never rejoined, a successor that never served)."""
    return float("inf") if mark_s is None else mark_s


def _recovers_to(series, pre_rate, settled_s):
    """Windows starting at or after *settled_s* exist and average more
    than 85% of *pre_rate*."""
    post = [w for w in _windows(series) if w[0] >= settled_s]
    return bool(post) and _mean_rate(post) > 0.85 * pre_rate


def never_stops_serving(simulated, params):
    """§6.5: a memory node failure must not halt the group (reads keep
    flowing): every window from the kill to the rejoin completed
    operations."""
    rejoin_s = _or_never(simulated["recovery_s"])
    return all(
        ops > 0
        for start, _end, ops in _windows(simulated["series"])
        if params["kill_at_us"] / 1e6 <= start < rejoin_s
    )


def dips_during_copy_back(simulated, params):
    """§6.5: "throughput drops as regions of memory are copied over".
    The copy's contention straddles window boundaries, so from the
    window the restart lands in until the rejoin, some window is below
    98% of the pre-failure rate."""
    series = simulated["series"]
    during = [
        ops
        for start, end, ops in _windows(series)
        if end > params["restart_at_us"] / 1e6
        and start < _or_never(simulated["recovery_s"])
    ]
    pre_rate = _pre_failure_rate(series, params["kill_at_us"] / 1e6)
    return not during or min(during) < 0.98 * pre_rate


def returns_to_pre_failure_level(simulated, params):
    """§6.5: the restarted node is copied back to and rejoins the group,
    and then "the system returns to its pre-failure throughput level":
    the windows from 0.3 s after the rejoin average more than 85% of
    the pre-failure rate."""
    series = simulated["series"]
    pre_rate = _pre_failure_rate(series, params["kill_at_us"] / 1e6)
    return _recovers_to(series, pre_rate, _or_never(simulated["recovery_s"]) + 0.3)


def cmd_fig12(args, scale):
    """Read-heavy throughput through a coordinator failure (§6.5).

    Recovery is heartbeat detection (~21 ms: 3 missed 7 ms reads), then
    replicated-memory log recovery, then loading the KV index table and
    bitmap and replaying the KV log; the last phase dominates, as in
    the paper.  The cache fills during replay, so the store resumes
    warm and with a burst (drained client queues).
    """
    kill_at, duration, clients = fig12_timings(args.smoke)
    results = _run(args, fig12_points(scale, args.seed, args.smoke))
    simulated = results["sift/coordinator-failure"]
    _print_timeline(
        "Figure 12: read-heavy throughput during a coordinator failure", simulated
    )
    if simulated["serving_s"] is not None:
        gap_ms = (simulated["serving_s"] - simulated["killed_s"]) * 1e3
        print(f"takeover after {gap_ms:.0f} ms "
              f"(KV records replayed: {simulated['replayed']})")
    return {
        "simulated": simulated,
        "params": {
            "cores": 12,
            "clients": clients,
            "kill_at_us": kill_at,
            "duration_us": duration,
            "workload": "read-heavy",
        },
    }


def pauses_without_a_coordinator(simulated, _params):
    """§6.5: "A coordinator failure causes the system to pause
    processing client requests until the system has been brought to a
    consistent state."  The gap (~110 ms at smoke scale) need not hold
    one whole 100 ms window, so the pause is read off the windows that
    overlap [killed, serving]: they are missing at least 80% of what
    the pre-failure rate completes in a gap that long."""
    killed_s, serving_s = simulated["killed_s"], _or_never(simulated["serving_s"])
    series = simulated["series"]
    pre_rate = _pre_failure_rate(series, killed_s)
    missing = sum(
        (pre_rate - ops) * (end - start)
        for start, end, ops in _windows(series)
        if end > killed_s and start < serving_s
    )
    return missing >= 0.8 * pre_rate * (serving_s - killed_s)


def takeover_far_exceeds_detection(simulated, _params):
    """§6.5: detection (~21 ms) is a small part of the gap; recovering
    the log and loading and replaying the KV structures dominates, as
    in the paper's 21 ms of ~6 s.  The kill-to-serving gap is more than
    50 ms, over twice the detection budget."""
    return _or_never(simulated["serving_s"]) - simulated["killed_s"] > 0.050


def resumes_at_pre_failure_level(simulated, _params):
    """§6.5: a backup CPU node takes over, and because the cache fills
    during replay the store resumes warm: the windows from 0.5 s after
    the takeover average more than 85% of the pre-failure rate."""
    series = simulated["series"]
    pre_rate = _pre_failure_rate(series, simulated["killed_s"])
    return _recovers_to(series, pre_rate, _or_never(simulated["serving_s"]) + 0.5)


def cmd_fig11sweep(args, scale):
    """Recovery time vs ``recovery_partitions`` (RAMCloud-style sweep).

    Re-runs the fig11 timeline at Fm = 2 for each partition count; each
    doubling doubles the source links streaming the image back, which
    :func:`recovery_strictly_faster` gates.  The ``sift/memnode-failure``
    anchor point re-runs fig11 itself (Fm = 1, single stream) and must
    match the fig11 artifact byte-for-byte.
    """
    points = fig11sweep_points(scale, args.seed, args.smoke)
    results = _run(args, points)
    rows = []
    sweep_keys = [f"sift/recovery-f2-p{p}" for p in RECOVERY_SWEEP_PARTITIONS]
    for key in sweep_keys:
        cell = results[key]
        copy_ms = (cell["copy_us"] or 0) / 1e3
        recovery_s = cell["recovery_s"]
        if recovery_s is None:  # never finished: every_sweep_point_recovers fails
            recovery_s = float("nan")
        rows.append(
            (
                key,
                f"recovery {recovery_s:7.3f} s   "
                f"copy {copy_ms:8.3f} ms   "
                f"sources {len(cell['sources'] or [])}",
            )
        )
    print(kv_table("Figure 11 sweep: recovery time vs partitions (Fm=2)", rows))
    return {
        "simulated": {point.key: results[point.key] for point in points},
        "params": {
            "f": 2,
            **_fig11_params(args.smoke),
            "partitions": list(RECOVERY_SWEEP_PARTITIONS),
        },
    }


def _sweep_recovery_times(simulated, params):
    return [
        simulated[f"sift/recovery-f2-p{p}"]["recovery_s"] for p in params["partitions"]
    ]


def every_sweep_point_recovers(simulated, params):
    """Every partition count finished its recovery inside the run."""
    return None not in _sweep_recovery_times(simulated, params)


def recovery_strictly_faster(simulated, params):
    """Among the points that recovered, each step up in partitions is
    strictly faster (RAMCloud's property: more source links, less time)."""
    times = [t for t in _sweep_recovery_times(simulated, params) if t is not None]
    return all(a > b for a, b in zip(times, times[1:]))


def cmd_throughput(args, scale):
    cell = throughput_point(
        args.system, args.workload, scale.clients, args.cores, scale, args.seed
    )
    print(kv_table(
        f"{args.system} / {args.workload}",
        [("throughput", f"{cell['ops_per_sec']:,.0f} ops/s"),
         ("completed", str(cell["completed"])),
         ("errors", str(cell["errors"]))],
    ))
    return {
        "simulated": cell,
        "params": {"system": args.system, "workload": args.workload,
                   "cores": args.cores},
    }


class Figure(NamedTuple):
    """One experiment: how to run it, what must hold of it, and whether
    CI pins its artifact against ``benchmarks/baselines/``."""

    run: Callable
    gates: Tuple[Callable[[dict, dict], bool], ...] = ()
    baseline: bool = False


FIGURES = {
    "table1": Figure(cmd_table1),
    "table2": Figure(cmd_table2),
    "fig5": Figure(
        cmd_fig5,
        (
            every_operation_succeeded,
            epaxos_flat_across_mixes,
            write_only_order,
            leaders_beat_epaxos_on_reads,
            sift_tracks_raft_on_reads,
            reads_beat_writes,
        ),
        baseline=True,
    ),
    "fig5ablate": Figure(cmd_fig5ablate, (full_stack_speedup,), baseline=True),
    "fig5cache": Figure(
        cmd_fig5cache, (more_cache_never_hurts, half_cache_beats_no_cache), baseline=True
    ),
    "fig5appliers": Figure(cmd_fig5appliers, (concurrent_appliers_pay,), baseline=True),
    "fig6": Figure(
        cmd_fig6,
        (
            low_load_latencies_similar,
            ec_never_beats_sift,
            rpc_floor,
            epaxos_reads_equal_writes,
            sift_rises_more_than_raft_under_load,
        ),
        baseline=True,
    ),
    "fig6path": Figure(
        cmd_fig6path, (rpc_layer_is_half_of_sift_latency,), baseline=True
    ),
    "fig7": Figure(
        cmd_fig7,
        (
            throughput_grows_with_cores,
            raft_leads_sift_leads_ec_at_8_cores,
            f2_no_faster_than_f1,
            table2_cores_land_in_one_band,
        ),
        baseline=True,
    ),
    "fig8": Figure(
        cmd_fig8,
        (recovery_falls_with_pool_and_rises_with_groups, paper_pool_sizes_suffice),
        baseline=True,
    ),
    "fig8live": Figure(cmd_fig8live, (live_pool_matches_model,), baseline=True),
    "figHotspot": Figure(
        cmd_figHotspot,
        (
            autoscaled_tail_beats_static,
            autoscaled_pool_is_cheaper,
            reconciler_split_hot_shard,
            reconciler_resized_pool,
            no_acked_write_lost,
            histories_linearizable,
        ),
        baseline=True,
    ),
    "figMclients": Figure(
        cmd_figMclients,
        (
            million_clients,
            underload_keeps_up,
            overload_sheds,
            every_level_records_slo,
        ),
        baseline=True,
    ),
    "fig9": Figure(
        cmd_fig9,
        (
            lone_group_costs_marginally_more,
            ec_and_shared_backups_save_35_percent,
            each_technique_lowers_cost,
        ),
        baseline=True,
    ),
    "fig10": Figure(
        cmd_fig10,
        (ec_alone_saves_13_percent, ec_and_shared_backups_save_56_percent),
        baseline=True,
    ),
    "fig11": Figure(
        cmd_fig11,
        (never_stops_serving, dips_during_copy_back, returns_to_pre_failure_level),
        baseline=True,
    ),
    "fig11sweep": Figure(
        cmd_fig11sweep,
        (every_sweep_point_recovers, recovery_strictly_faster),
        baseline=True,
    ),
    "fig12": Figure(
        cmd_fig12,
        (
            pauses_without_a_coordinator,
            takeover_far_exceeds_detection,
            resumes_at_pre_failure_level,
        ),
        baseline=True,
    ),
    "throughput": Figure(cmd_throughput),
}


def _baselines_dir() -> str:
    """``benchmarks/baselines/`` at the repo root, found from this file."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "benchmarks", "baselines")


def failed_gates(name: str, simulated: dict, params: dict) -> List[str]:
    """``<figure>.<gate>`` for every gate of figure *name* that does not
    hold on an artifact's *simulated* and *params* sections."""
    return [
        f"{name}.{gate.__name__}"
        for gate in FIGURES[name].gates
        if not gate(simulated, params)
    ]


def _run_one(name: str, args, scale: BenchScale) -> List[str]:
    """Run one experiment under a fresh registry, check its gates, then
    write its artifact; returns the gates that failed."""
    registry = MetricsRegistry()
    started = time.monotonic()
    with collecting(registry):
        payload = FIGURES[name].run(args, scale)
    wall_clock_s = time.monotonic() - started
    if payload is None:
        return []
    params = dict(payload.get("params") or {})
    failed = failed_gates(name, payload["simulated"], params)
    for gate in failed:
        print(f"GATE FAIL {gate}", file=sys.stderr)
    # Checked before the write: --refresh-baselines never commits a
    # baseline that fails its own figure's gates.
    if args.no_artifact or (failed and args.refresh_baselines):
        return failed
    params["scale"] = asdict(scale)
    path = write_artifact(
        args.out_dir,
        name,
        payload["simulated"],
        seeds=[args.seed],
        params=params,
        registry=registry,
        wall_clock_s=wall_clock_s,
    )
    print(f"  wrote {path}", file=sys.stderr)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cli",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"one or more of: {', '.join(FIGURES)}",
    )
    parser.add_argument("--system", default="sift",
                        choices=["sift", "sift-ec", "raft-r", "epaxos", "sharded"])
    parser.add_argument(
        "--shards", type=int, nargs="+", default=None, metavar="G",
        help="shard counts swept by fig8live (default: per-scale preset)",
    )
    parser.add_argument("--workload", default="read-heavy", choices=list(WORKLOADS))
    parser.add_argument("--cores", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1,
                        help="experiment seed recorded in the artifact")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent figure points "
             "(artifacts are byte-identical at any job count)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="pinned CI scale (ignores REPRO_BENCH_* env)")
    parser.add_argument("--out-dir", default="bench_artifacts",
                        help="directory for BENCH_<figure>.json artifacts")
    parser.add_argument("--no-artifact", action="store_true",
                        help="print figures only, write nothing")
    parser.add_argument(
        "--refresh-baselines", action="store_true",
        help="regenerate benchmarks/baselines/ (all gated figures, smoke scale)",
    )
    args = parser.parse_args(argv)

    if args.refresh_baselines:
        args.smoke = True
        args.no_artifact = False
        args.out_dir = _baselines_dir()
        experiments = [name for name, figure in FIGURES.items() if figure.baseline]
    else:
        experiments = args.experiments
        if not experiments:
            parser.error("no experiments given")

    scale = SMOKE_SCALE if args.smoke else BenchScale()
    failed = []
    for experiment in experiments:
        if experiment not in FIGURES:
            parser.error(f"unknown experiment: {experiment}")
        failed += _run_one(experiment, args, scale)
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
