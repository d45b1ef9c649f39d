"""Command-line experiment runner.

``python -m repro.bench.cli <experiment>`` regenerates one of the
paper's tables/figures (or an ablation) and prints it.  Scale comes from
the ``REPRO_BENCH_*`` environment variables (see
:mod:`repro.bench.calibration`), or is pinned with ``--smoke``.

A figure is declared once, as a :class:`Figure` entry of ``FIGURES``:

``params(smoke, scale)``
    The artifact's ``params`` section (:mod:`repro.bench.points`), the
    one input to everything below and the only reader of ``--smoke``.
``points(params, scale, seed)``
    The independent :class:`~repro.bench.parallel.Point` list.
``shape(results, params)``
    ``{point key: value}`` reshaped into the artifact's ``simulated``
    section: :func:`keyed`, :func:`nested` or :func:`single`.
``render(simulated, params) -> str``
    The paper-style table, a pure function of the two artifact
    sections, so it prints a committed baseline as well as a live run.
``gates``
    Named pure predicates over the same ``(simulated, params)``,
    evaluated by :func:`failed_gates` only: a miss prints ``GATE FAIL
    <figure>.<gate>`` and makes :func:`main` exit 1.  Each claim §6
    makes about a figure is stated here, once, as a gate whose
    docstring is the paper sentence.

:func:`run_figure` is the one driver and the programmatic entry point:
it takes no argparse namespace and prints nothing.  Only :func:`main`,
:func:`_run_one` and the three non-figure commands (``table1``,
``table2``, ``throughput``) see ``args`` or print.

Every figure also writes a versioned ``BENCH_<figure>.json`` artifact
(see :mod:`repro.obs.artifact`) into ``--out-dir``: the simulated
numbers, a metrics-registry snapshot collected during the run, the
seeds, the parameters, the git SHA and the wall clock.  CI's
``bench-smoke`` job regenerates every ``baseline`` figure of
``FIGURES`` at ``--smoke`` scale and diffs them against
``benchmarks/baselines/`` with :mod:`repro.obs.compare` (plus a
byte-diff of the exported ``TRACE_fig6path.json`` Perfetto trace).
Because gates and renderers read nothing but the artifact,
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
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.api import SYSTEMS
from repro.baselines import characteristics_table
from repro.bench import points
from repro.bench.calibration import SMOKE_SCALE, BenchScale
from repro.bench.parallel import Point, run_points
from repro.bench.report import bar_table, kv_table, series_table, sparkline
from repro.cluster.provision import TARGET_THROUGHPUT, machine_table
from repro.obs.artifact import write_artifact
from repro.obs.critpath import STAGES
from repro.obs.export import write_chrome_trace
from repro.obs.registry import MetricsRegistry, collecting
from repro.workloads import WORKLOADS

__all__ = ["FIGURES", "Figure", "main", "run_figure"]


# The three shared reshapes of ``{point key: value}`` into ``simulated``.


def keyed(results: dict, _params: dict) -> dict:
    """One cell per point, under the point's key."""
    return results


def nested(results: dict, _params: dict) -> dict:
    """Points keyed ``a/b`` become ``simulated[a][b]``."""
    simulated: dict = {}
    for key, cell in results.items():
        outer, inner = key.split("/")
        simulated.setdefault(outer, {})[inner] = cell
    return simulated


def single(results: dict, _params: dict) -> dict:
    """The figure is one run: its only point's value."""
    (cell,) = results.values()
    return cell


# What follows is each figure's renderer, then its gates.
#
# A renderer is ``render(simulated, params) -> str`` and a gate is
# ``gate(simulated, params) -> bool``, named by its function name,
# stating its property in its docstring.  A loaded artifact iterates
# ``simulated`` in sorted-key order and a live run in declared order,
# so both address cells by keys built from ``params``, never by
# position.  The commands that are not figures come first: they have no
# points, or take their parameters from ``--system/--workload/--cores``,
# keep a ``run(args, scale)`` form, and print for themselves.


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


def cmd_throughput(args, scale):
    cell = points.throughput_point(
        args.system, args.workload, scale.clients, args.cores, scale, args.seed
    )
    print(kv_table(
        f"{args.system} / {args.workload}",
        [("throughput", f"{cell['ops_per_sec']:,.0f} ops/s"),
         ("completed", str(cell["completed"])),
         ("errors", str(cell["errors"]))],
    ))
    return cell, {"system": args.system, "workload": args.workload, "cores": args.cores}


def _render_fig5(simulated, params):
    mixes = params["workloads"]
    rows = {
        name: [simulated[name][mix]["ops_per_sec"] for mix in mixes]
        for name in points.FIG5_SYSTEMS
    }
    return bar_table("Figure 5: throughput by workload (F=1)", mixes, rows)


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


def _render_fig6(simulated, _params):
    rows = {}
    for name in points.FIG6_SYSTEMS:
        for load in ("low", "high"):
            r = simulated[name][load]
            rows[f"{name}/{load}"] = [
                (1, r["read_p50"] or 0.0),
                (2, r["read_p95"] or 0.0),
                (3, r["write_p50"] or 0.0),
                (4, r["write_p95"] or 0.0),
            ]
    return series_table(
        "Figure 6: latency (us) at 1 client and ~90% load",
        "metric (1=read p50, 2=read p95, 3=write p50, 4=write p95)",
        "microseconds",
        rows,
    )


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


def _render_fig6path(simulated, _params):
    """Fig. 6, traced: per-stage critical-path latency attribution.

    Re-runs every fig6 cell with a tracer over the measurement window
    and walks each committed operation's span tree into exclusive
    per-stage segments (:mod:`repro.obs.critpath`).  The
    ``params["trace_cell"]`` cell's raw spans are also written as a
    Perfetto/Chrome trace (``TRACE_fig6path.json``) next to the artifact.
    """
    rows = []
    for name in points.FIG6_SYSTEMS:
        for load in ("low", "high"):
            for op, digest in sorted(simulated[name][load]["critical_path"].items()):
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
    return kv_table("Figure 6 (path): critical-path latency attribution", rows)


def rpc_layer_is_half_of_sift_latency(simulated, _params):
    """§6.3.3 attributes ~50 us, about half, of a request to the RPC
    layer: at 1 client the ``rpc_in`` + ``ack`` stages carry at least
    50% of a Sift get's and a Sift put's critical path."""
    ops = simulated["sift"]["low"]["critical_path"]
    return all(
        stages["rpc_in"]["share"] + stages["ack"]["share"] >= 0.5
        for stages in (digest["aggregate"]["stages"] for digest in ops.values())
    )


def _render_fig7(simulated, params):
    """Read-heavy peak throughput vs. provisioned cores, F in {1, 2}:
    "how Raft nodes and Sift CPU nodes should be provisioned to achieve
    equivalent performance".  The knees of these curves are what
    Table 2's 8/10/12-core choices and §6.4's cost comparison rest on,
    so Table 2's "normalized" claim is a gate over this grid's cells.
    """
    series = {
        f"{system} (F={f})": [
            (cores, _at_cores(simulated, system, f, cores)) for cores in core_counts
        ]
        for f, core_counts in params["cores_by_f"]
        for system in params["systems"]
    }
    return series_table("Figure 7: read-heavy throughput vs. cores", "cores",
                        "ops/sec", series)


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


def _render_knob_sweep(title, simulated, params):
    """A one-knob Sift ablation (see ``points.knob_sweep_points``)."""
    series = list(zip(params["values"], _knob_rates(simulated, params)))
    return series_table(title, params["knob"], "ops/sec", {"sift": series})


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


def _render_fig8(simulated, params):
    series = {
        f"{groups} groups": simulated[f"{groups} groups"] for groups in params["groups"]
    }
    return series_table("Figure 8: recovery time per fault", "backups", "s/fault", series)


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


def _render_fig8live(simulated, params):
    """The live counterpart of fig8: real groups, a real promoting pool.

    Where fig8 replays a failure trace through the capacity model, this
    runs staggered coordinator crashes against a live
    :class:`~repro.shard.ShardedKvService` and reconciles the measured
    promotion waits with the same :class:`PoolAccountant` the model
    uses.
    """
    rows = []
    for shards in params["shards"]:
        cell = simulated[f"sharded/{shards}"]
        rows.append(
            (
                f"sharded/{shards}",
                f"live {cell['live_per_fault_us'] / 1e6:7.3f} s/fault  "
                f"model {cell['model_per_fault_us'] / 1e6:7.3f} s/fault  "
                f"{'agrees' if cell['agrees'] else 'DISAGREES'} "
                f"(tolerance {cell['tolerance_us'] / 1e6:.3f} s)",
            )
        )
    return kv_table("Figure 8 (live): shared pool vs trace model", rows)


def live_pool_matches_model(simulated, params):
    """At every shard count the live pool agrees with the trace model."""
    return all(simulated[f"sharded/{n}"]["agrees"] for n in params["shards"])


def _render_figMclients(simulated, params):
    """Open-loop saturation sweep: a million-client population.

    Sweeps the offered arrival rate from underload through the
    saturation knee into firm overload against the sharded spec, driven
    by the vectorized :class:`~repro.workloads.openloop.OpenLoopEngine`
    ("heavy traffic from millions of users" as a regression-gated
    artifact; the four gates follow the function).
    """
    rows = []
    for label, _multiplier in params["levels"]:
        cell = simulated[f"sharded/{label}"]
        shed_total = sum(cell["shed"].values())
        p99s = "  ".join(
            f"{shard} p99 {ops.get('read', ops.get('write', {})).get('p99', 0.0):7.0f}us"
            for shard, ops in sorted(cell["slo"].items())
        )
        rows.append(
            (
                f"sharded/{label}",
                f"offered {cell['offered_ops_per_sec']:9,.0f}  "
                f"achieved {cell['achieved_ops_per_sec']:9,.0f} ops/s  "
                f"shed {shed_total:6d}  err {cell['errors']:4d}  {p99s}",
            )
        )
    return kv_table("Figure Mclients: open-loop offered-load sweep", rows)


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


def _render_figHotspot(simulated, _params):
    """Elastic control plane under a mid-run hotspot shift.

    Two cells share one seed and one scenario — a warmup coordinator
    fault burst, then a Zipf hotspot retargeted onto one shard at fixed
    offered load — and differ only in the control plane: *static* keeps
    a peak-provisioned backup pool and fixed topology, *autoscaled*
    starts lean and must reconcile (resize the pool from the observed
    burst, split the hot shard under live load).  The six gates follow
    the function.
    """
    rows = []
    for label, cell in zip(("static", "autoscaled"), _hotspot_cells(simulated)):
        rows.append(
            (
                f"sharded/{label}",
                f"after p99.9 {cell['tails']['after']['p99.9']:8.0f}us  "
                f"pool {cell['pool']['vm_seconds']:5.2f} VM-s  "
                f"shards {cell['control']['shards']}  "
                f"splits {cell['control']['splits']}  "
                f"lost {cell['probe']['lost'] + cell['probe']['missing']}  "
                f"lincheck {'ok' if cell['probe']['lincheck_ok'] else 'FAIL'}",
            )
        )
    return kv_table("Figure Hotspot: elastic vs static under a load shift", rows)


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


EC_SHARED = "sift-ec + shared backups"
#: Figures 9-10's bars, in the paper's order.
COST_BARS = ("sift", "sift + shared backups", "sift-ec", EC_SHARED)


def _render_costs(figure, simulated, params):
    providers = params["providers"]
    return bar_table(
        f"{figure}: cost vs Raft-R (%), F={params['f']}", COST_BARS,
        {p: [simulated[p][bar] for bar in COST_BARS] for p in providers}, unit="%",
    )


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


def _render_timeline(title, simulated, *more):
    series = [(t, ops) for t, ops in simulated["series"]]
    return "\n".join([
        series_table(title, "seconds", "ops/sec", {"sift": series}),
        f"timeline: {sparkline([ops for _t, ops in series])}",
        f"events: {[(t, label) for t, label in simulated['events']]}",
        *more,
    ])


def _render_fig11(simulated, _params):
    return _render_timeline(
        "Figure 11: read-heavy throughput during a memory node failure", simulated,
        f"recovery completed: {simulated['recovery_s'] is not None}",
    )


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


def _render_fig12(simulated, _params):
    """Read-heavy throughput through a coordinator failure (§6.5).

    Recovery is heartbeat detection (~21 ms: 3 missed 7 ms reads), then
    replicated-memory log recovery, then loading the KV index table and
    bitmap and replaying the KV log; the last phase dominates, as in
    the paper.  The cache fills during replay, so the store resumes
    warm and with a burst (drained client queues).
    """
    more = []
    if simulated["serving_s"] is not None:
        gap_ms = (simulated["serving_s"] - simulated["killed_s"]) * 1e3
        more.append(f"takeover after {gap_ms:.0f} ms "
                    f"(KV records replayed: {simulated['replayed']})")
    return _render_timeline(
        "Figure 12: read-heavy throughput during a coordinator failure", simulated,
        *more,
    )


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


def _render_fig11sweep(simulated, params):
    """Recovery time vs ``recovery_partitions`` (RAMCloud-style sweep).

    Re-runs the fig11 timeline at Fm = 2 for each partition count; each
    doubling doubles the source links streaming the image back, which
    :func:`recovery_strictly_faster` gates.  The ``sift/memnode-failure``
    anchor point re-runs fig11 itself (Fm = 1, single stream) and must
    match the fig11 artifact byte-for-byte.
    """
    rows = []
    for partitions in params["partitions"]:
        key = f"sift/recovery-f2-p{partitions}"
        cell = simulated[key]
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
    return kv_table("Figure 11 sweep: recovery time vs partitions (Fm=2)", rows)


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


class Figure(NamedTuple):
    """One figure, declared once (the fields are described in the
    module docstring), and whether CI pins its artifact against
    ``benchmarks/baselines/``."""

    params: Callable[[bool, BenchScale], dict]
    points: Callable[[dict, BenchScale, int], List[Point]]
    render: Callable[[dict, dict], str]
    gates: Tuple[Callable[[dict, dict], bool], ...]
    shape: Callable[[dict, dict], dict] = keyed
    baseline: bool = True


class Command(NamedTuple):
    """A command that is not a figure: ``run(args, scale)`` prints and
    returns None, or ``(simulated, params)`` to file as an artifact."""

    run: Callable
    gates: Tuple[Callable[[dict, dict], bool], ...] = ()
    baseline: bool = False


FIGURES = {
    "table1": Command(cmd_table1),
    "table2": Command(cmd_table2),
    "fig5": Figure(
        points.fig5_params, points.fig5_points, _render_fig5,
        (
            every_operation_succeeded,
            epaxos_flat_across_mixes,
            write_only_order,
            leaders_beat_epaxos_on_reads,
            sift_tracks_raft_on_reads,
            reads_beat_writes,
        ),
        shape=nested,
    ),
    # §6.3.2's coordinator cache, shrunk toward the remote-read-bound regime.
    "fig5cache": Figure(
        partial(points.knob_sweep_params, "read-heavy", "cache_fraction", (0.0, 0.1, 0.5)),
        points.knob_sweep_points,
        partial(
            _render_knob_sweep,
            "Ablation: read-heavy throughput vs. cache size (fraction of key space)",
        ),
        (more_cache_never_hurts, half_cache_beats_no_cache),
    ),
    # §4.2's concurrent background appliers, down to a serial apply pipeline.
    "fig5appliers": Figure(
        partial(points.knob_sweep_params, "write-only", "apply_workers", (1, 2, 8)),
        points.knob_sweep_points,
        partial(_render_knob_sweep, "Ablation: write-only throughput vs. concurrent appliers"),
        (concurrent_appliers_pay,),
    ),
    "fig6": Figure(
        points.fig6_params, points.fig6_points, _render_fig6,
        (
            low_load_latencies_similar,
            ec_never_beats_sift,
            rpc_floor,
            epaxos_reads_equal_writes,
            sift_rises_more_than_raft_under_load,
        ),
        shape=nested,
    ),
    "fig6path": Figure(
        points.fig6path_params, points.fig6path_points, _render_fig6path,
        (rpc_layer_is_half_of_sift_latency,),
        shape=nested,
    ),
    "fig7": Figure(
        points.fig7_params, points.fig7_points, _render_fig7,
        (
            throughput_grows_with_cores,
            raft_leads_sift_leads_ec_at_8_cores,
            f2_no_faster_than_f1,
            table2_cores_land_in_one_band,
        ),
    ),
    "fig8": Figure(
        points.fig8_params, points.fig8_points, _render_fig8,
        (recovery_falls_with_pool_and_rises_with_groups, paper_pool_sizes_suffice),
        shape=single,
    ),
    "fig8live": Figure(
        points.fig8live_params, points.fig8live_points, _render_fig8live,
        (live_pool_matches_model,),
    ),
    "figHotspot": Figure(
        points.figHotspot_params, points.figHotspot_points, _render_figHotspot,
        (
            autoscaled_tail_beats_static,
            autoscaled_pool_is_cheaper,
            reconciler_split_hot_shard,
            reconciler_resized_pool,
            no_acked_write_lost,
            histories_linearizable,
        ),
    ),
    "figMclients": Figure(
        points.figMclients_params, points.figMclients_points, _render_figMclients,
        (
            million_clients,
            underload_keeps_up,
            overload_sheds,
            every_level_records_slo,
        ),
    ),
    "fig9": Figure(
        partial(points.cost_params, 1), points.cost_points, partial(_render_costs, "Figure 9"),
        (
            lone_group_costs_marginally_more,
            ec_and_shared_backups_save_35_percent,
            each_technique_lowers_cost,
        ),
        shape=single,
    ),
    "fig10": Figure(
        partial(points.cost_params, 2), points.cost_points, partial(_render_costs, "Figure 10"),
        (ec_alone_saves_13_percent, ec_and_shared_backups_save_56_percent),
        shape=single,
    ),
    "fig11": Figure(
        points.fig11_params, points.fig11_points, _render_fig11,
        (never_stops_serving, dips_during_copy_back, returns_to_pre_failure_level),
        shape=single,
    ),
    "fig11sweep": Figure(
        points.fig11sweep_params, points.fig11sweep_points, _render_fig11sweep,
        (every_sweep_point_recovers, recovery_strictly_faster),
    ),
    "fig12": Figure(
        points.fig12_params, points.fig12_points, _render_fig12,
        (
            pauses_without_a_coordinator,
            takeover_far_exceeds_detection,
            resumes_at_pre_failure_level,
        ),
        shape=single,
    ),
    "throughput": Command(cmd_throughput),
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


def run_figure(
    name: str, smoke: bool, scale: BenchScale, seed: int, jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[dict, dict, Optional[list]]:
    """Run figure *name* and return ``(simulated, params, spans)``: the
    artifact's two deterministic sections and the raw trace spans a
    point exported (None when none did).  Prints nothing; publishes to
    the ambient metrics registry, if one is collecting."""
    figure = FIGURES[name]
    params = figure.params(smoke, scale)
    results = run_points(figure.points(params, scale, seed), jobs=jobs, progress=progress)
    spans = None
    for cell in results.values():
        spans = cell.pop("spans", spans)
    return figure.shape(results, params), params, spans


def _run_one(name: str, args, scale: BenchScale) -> List[str]:
    """Run one experiment under a fresh registry, print it, check its
    gates, then write its artifact (and trace); returns the gates that
    failed."""
    entry = FIGURES[name]
    registry = MetricsRegistry()
    started = time.monotonic()
    with collecting(registry):
        if isinstance(entry, Command):
            payload = entry.run(args, scale)
            if payload is None:
                return []
            simulated, params = payload
            spans = None
        else:
            simulated, params, spans = run_figure(
                name, args.smoke, scale, args.seed, args.jobs,
                progress=lambda key: print(f"  [{key}] done", file=sys.stderr),
            )
            print(entry.render(simulated, params))
    wall_clock_s = time.monotonic() - started
    failed = failed_gates(name, simulated, params)
    for gate in failed:
        print(f"GATE FAIL {gate}", file=sys.stderr)
    # Checked before any write: --refresh-baselines never commits a
    # baseline, or its trace, that fails its own figure's gates.
    if args.no_artifact or (failed and args.refresh_baselines):
        return failed
    path = write_artifact(
        args.out_dir,
        name,
        simulated,
        seeds=[args.seed],
        params={**params, "scale": asdict(scale)},
        registry=registry,
        wall_clock_s=wall_clock_s,
    )
    print(f"  wrote {path}", file=sys.stderr)
    if spans:
        path = write_chrome_trace(
            os.path.join(args.out_dir, f"TRACE_{name}.json"),
            spans,
            process_name=f"repro {params['trace_cell']}",
        )
        print(f"  wrote {path} ({len(spans)} spans)", file=sys.stderr)
    return failed


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cli",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"one or more of: {', '.join(FIGURES)}",
    )
    parser.add_argument("--system", default="sift", choices=SYSTEMS)
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
    return parser


def main(argv=None) -> int:
    parser = _parser()
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
