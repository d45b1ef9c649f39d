"""Command-line experiment runner.

``python -m repro.bench.cli <experiment>`` regenerates one of the
paper's tables/figures (or an ablation) and prints it, without going
through pytest.  Scale is controlled by the same ``REPRO_BENCH_*``
environment variables the benchmarks use, or pinned with ``--smoke``.

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
<figure>.<gate>`` and makes :func:`main` exit 1.  Because they read
nothing but the artifact, ``tests/test_figure_gates.py`` checks the
same predicates against the committed baselines.

Examples::

    python -m repro.bench.cli table1
    python -m repro.bench.cli fig9 fig10
    REPRO_BENCH_MEASURE_MS=300 python -m repro.bench.cli fig5
    python -m repro.bench.cli throughput --system sift-ec --workload mixed
    python -m repro.bench.cli fig5 fig6 fig11 --smoke --out-dir bench_artifacts
    python -m repro.bench.cli fig5 --jobs 4   # fan points across processes
    python -m repro.bench.cli --refresh-baselines

Figures made of independent points (fig5, fig6, fig11) accept
``--jobs N`` to fan the points across worker processes via
:mod:`repro.bench.parallel`; per-point metric registries are merged in
declared point order, so the artifact is byte-identical at any job
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
    build_spec,
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
    fig11_points,
    fig11_timings,
    fig11sweep_points,
    RECOVERY_SWEEP_PARTITIONS,
)
from repro.bench.report import bar_table, kv_table, series_table, sparkline
from repro.bench.runner import run_throughput
from repro.cluster import relative_costs
from repro.cluster.backups import sweep_backup_pool
from repro.cluster.provision import TARGET_THROUGHPUT, machine_table
from repro.obs.artifact import write_artifact
from repro.obs.critpath import STAGES
from repro.obs.export import write_chrome_trace
from repro.obs.registry import MetricsRegistry, collecting
from repro.workloads import WORKLOADS

__all__ = ["main"]


def _progress(key: str) -> None:
    print(f"  [{key}] done", file=sys.stderr)


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
    results = run_points(fig5_points(scale, args.seed), jobs=args.jobs,
                         progress=_progress)
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
        "params": {"cores": 12, "workloads": mixes},
    }


def cmd_fig6(args, scale):
    high_load_clients = fig6_high_load_clients(args.smoke)
    results = run_points(
        fig6_points(scale, args.seed, high_load_clients), jobs=args.jobs,
        progress=_progress,
    )
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


def cmd_fig6path(args, scale):
    """Fig. 6, traced: per-stage critical-path latency attribution.

    Re-runs every fig6 cell with a tracer over the measurement window
    and walks each committed operation's span tree into exclusive
    per-stage segments (:mod:`repro.obs.critpath`).  The sift/low
    cell's raw spans are also written as a Perfetto/Chrome trace
    (``TRACE_fig6path.json``) next to the artifact.
    """
    high_load_clients = fig6_high_load_clients(args.smoke)
    results = run_points(
        fig6path_points(scale, args.seed, high_load_clients), jobs=args.jobs,
        progress=_progress,
    )
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


def cmd_fig5ablate(args, scale):
    """The batching ablation: WAL coalescing x doorbell batching.

    A committed 2x2 grid on Sift's write-only peak: each batching layer
    alone, and the full stack, against the plain per-record, per-verb
    stack.  The simulated speedup of the full stack is the repo's one
    deterministic perf floor (:func:`full_stack_speedup`).
    """
    results = run_points(fig5ablate_points(scale, args.seed), jobs=args.jobs,
                         progress=_progress)
    simulated = {}
    rows = []
    plain = results["sift/plain"]["ops_per_sec"]
    for key, _coalesce, _doorbell in FIG5ABLATE_GRID:
        cell = results[f"sift/{key}"]
        simulated[key] = cell
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
    results = run_points(points, jobs=args.jobs, progress=_progress)
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
    results = run_points(points, jobs=args.jobs, progress=_progress)
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
    results = run_points(points, jobs=args.jobs, progress=_progress)
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


def cmd_fig9(_args, _scale):
    costs = {p: relative_costs(p, 1) for p in ("aws", "gcp")}
    labels = list(costs["aws"])
    print(bar_table(
        "Figure 9: cost vs Raft-R (%), F=1", labels,
        {p: [costs[p][l] for l in labels] for p in costs}, unit="%",
    ))
    return {"simulated": costs, "params": {"f": 1}}


def cmd_fig10(_args, _scale):
    costs = {p: relative_costs(p, 2) for p in ("aws", "gcp")}
    labels = list(costs["aws"])
    print(bar_table(
        "Figure 10: cost vs Raft-R (%), F=2", labels,
        {p: [costs[p][l] for l in labels] for p in costs}, unit="%",
    ))
    return {"simulated": costs, "params": {"f": 2}}


def cmd_fig11(args, scale):
    # One point: the timeline is a single run (see points.fig11_timings
    # for the full-size vs --smoke schedules).
    kill_at, restart_at, duration, clients = fig11_timings(args.smoke)
    results = run_points(
        fig11_points(scale, args.seed, args.smoke), jobs=args.jobs,
        progress=_progress,
    )
    simulated = results["sift/memnode-failure"]
    series = [(t, ops) for t, ops in simulated["series"]]
    events = [(t, label) for t, label in simulated["events"]]
    print(
        series_table(
            "Figure 11: read-heavy throughput during a memory node failure",
            "seconds",
            "ops/sec",
            {"sift": series},
        )
    )
    print("timeline:", sparkline([ops for _t, ops in series]))
    print("events:", events, "recovery completed:",
          simulated["recovery_s"] is not None)
    return {
        "simulated": simulated,
        "params": {
            "cores": 12,
            "clients": clients,
            "kill_at_us": kill_at,
            "restart_at_us": restart_at,
            "duration_us": duration,
            "workload": "read-heavy",
        },
    }


def cmd_fig11sweep(args, scale):
    """Recovery time vs ``recovery_partitions`` (RAMCloud-style sweep).

    Re-runs the fig11 timeline at Fm = 2 for each partition count; each
    doubling doubles the source links streaming the image back, which
    :func:`recovery_strictly_faster` gates.  The ``sift/memnode-failure``
    anchor point re-runs fig11 itself (Fm = 1, single stream) and must
    match the fig11 artifact byte-for-byte.
    """
    kill_at, restart_at, duration, clients = fig11_timings(args.smoke)
    points = fig11sweep_points(scale, args.seed, args.smoke)
    results = run_points(points, jobs=args.jobs, progress=_progress)
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
            "cores": 12,
            "clients": clients,
            "kill_at_us": kill_at,
            "restart_at_us": restart_at,
            "duration_us": duration,
            "workload": "read-heavy",
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
    spec = build_spec(args.system, scale, cores=args.cores)
    result = run_throughput(
        spec, WORKLOADS[args.workload], scale=scale, seed=args.seed
    )
    print(kv_table(
        f"{args.system} / {args.workload}",
        [("throughput", f"{result.ops_per_sec:,.0f} ops/s"),
         ("completed", str(result.completed)),
         ("errors", str(result.errors))],
    ))
    return {
        "simulated": {
            "ops_per_sec": result.ops_per_sec,
            "completed": result.completed,
            "errors": result.errors,
        },
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
    "fig5": Figure(cmd_fig5, baseline=True),
    "fig5ablate": Figure(cmd_fig5ablate, (full_stack_speedup,), baseline=True),
    "fig6": Figure(cmd_fig6, baseline=True),
    "fig6path": Figure(cmd_fig6path, baseline=True),
    "fig8": Figure(cmd_fig8),
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
    "fig9": Figure(cmd_fig9),
    "fig10": Figure(cmd_fig10),
    "fig11": Figure(cmd_fig11, baseline=True),
    "fig11sweep": Figure(
        cmd_fig11sweep,
        (every_sweep_point_recovers, recovery_strictly_faster),
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
        help=f"one or more of: {', '.join(FIGURES)} "
             "(fig7/fig12 run via pytest benchmarks/)",
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
