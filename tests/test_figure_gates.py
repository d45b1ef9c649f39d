"""Figure gates: named predicates, checked where the data already is.

A gate is a pure function of an artifact's ``(simulated, params)``
sections, listed beside its figure in ``repro.bench.cli.FIGURES``.  The
committed baselines are byte-pinned by CI, so evaluating the gates on
them here proves each property of the numbers the repo publishes
without running a figure; one minimal mutation per gate proves each
gate can fail, and fails alone.

The rest of a figure's declaration (``params``, ``points``, ``shape``,
``render``) is held to the same bytes, also without a simulation: the
smoke ``params`` are the committed ones, the points built from them are
picklable calls of top-level functions, and the renderer prints the
committed ``simulated`` section whatever order its keys arrive in.
"""

import copy
import functools
import glob
import inspect
import json
import os
import pickle
import re
import sys
from dataclasses import asdict

import pytest

from repro.bench import cli, points
from repro.bench.calibration import SMOKE_SCALE
from repro.bench.parallel import Point
from repro.obs.artifact import load_artifact

BASELINES = cli._baselines_dir()
REPO = os.path.dirname(os.path.dirname(BASELINES))

GATED = {name: figure for name, figure in cli.FIGURES.items() if figure.gates}

#: Commands with no claim to state: two static tables and the free-form
#: single-point probe.
UNPINNED = {"table1", "table2", "throughput"}


def _set(path, value):
    """A mutation: ``doc[path[0]][path[1]]... = value`` on a loaded artifact."""

    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _hotspot_tail_tie(doc):
    cells = doc["simulated"]
    cells["sharded/autoscaled"]["tails"]["after"]["p99.9"] = (
        cells["sharded/static"]["tails"]["after"]["p99.9"]
    )


def _hotspot_pool_tie(doc):
    cells = doc["simulated"]
    cells["sharded/autoscaled"]["pool"]["vm_seconds"] = (
        cells["sharded/static"]["pool"]["vm_seconds"]
    )


def _ablate_just_under_floor(doc):
    cells = doc["simulated"]
    cells["coalesce+doorbell"]["ops_per_sec"] = 1.249 * cells["plain"]["ops_per_sec"]


def _sweep_tie(doc):
    cells = doc["simulated"]
    cells["sift/recovery-f2-p4"]["recovery_s"] = (
        cells["sift/recovery-f2-p2"]["recovery_s"]
    )


def _scaled(path, factor, of):
    """A mutation: the number at *path* becomes *factor* x the number at *of*."""

    def mutate(doc):
        source = doc
        for key in of:
            source = source[key]
        _set(path, factor * source)(doc)

    return mutate


def _fig5(system, mix):
    return ("simulated", system, mix, "ops_per_sec")


def _fig6(system, load, metric):
    return ("simulated", system, load, metric)


def _fig7(system, f, cores):
    return ("simulated", f"{system}/f{f}/c{cores}", "ops_per_sec")


def _knob(knob, value):
    return ("simulated", f"sift/{knob}={value}", "ops_per_sec")


def _sift_p50_rises_exactly_like_raft(doc):
    cells = doc["simulated"]
    raft_rise = cells["raft-r"]["high"]["write_p50"] - cells["raft-r"]["low"]["write_p50"]
    cells["sift"]["high"]["write_p50"] = cells["sift"]["low"]["write_p50"] + raft_rise


EC_SHARED = cli.EC_SHARED

#: ``figure.gate`` -> the smallest edit of the committed baseline that
#: must fail that gate and no other.
MUTATIONS = {
    "fig5.every_operation_succeeded": _set(("simulated", "sift", "mixed", "errors"), 1),
    # No other gate reads EPaxos's mixed cell.
    "fig5.epaxos_flat_across_mixes": _scaled(
        _fig5("epaxos", "mixed"), 0.8, of=_fig5("epaxos", "write-only")
    ),
    "fig5.write_only_order": _scaled(
        _fig5("sift-ec", "write-only"), 1.0, of=_fig5("sift", "write-only")
    ),
    "fig5.leaders_beat_epaxos_on_reads": _scaled(
        _fig5("raft-r", "read-heavy"), 1.5, of=_fig5("epaxos", "read-heavy")
    ),
    # Too far *above* Raft-R: too far below would also lose to EPaxos x 1.5.
    "fig5.sift_tracks_raft_on_reads": _scaled(
        _fig5("sift", "read-only"), 1.26, of=_fig5("raft-r", "read-only")
    ),
    # Sift EC's read cells are read by no other gate.
    "fig5.reads_beat_writes": _scaled(
        _fig5("sift-ec", "read-only"), 1.0, of=_fig5("sift-ec", "write-only")
    ),
    "fig5cache.more_cache_never_hurts": _scaled(
        _knob("cache_fraction", 0.1), 0.94, of=_knob("cache_fraction", 0.0)
    ),
    # The cache-less cell up, not the 50% cell down past the 10% cell.
    "fig5cache.half_cache_beats_no_cache": _scaled(
        _knob("cache_fraction", 0.0), 0.91, of=_knob("cache_fraction", 0.5)
    ),
    "fig5appliers.concurrent_appliers_pay": _scaled(
        _knob("apply_workers", 8), 1.3, of=_knob("apply_workers", 1)
    ),
    "fig6.low_load_latencies_similar": _scaled(
        _fig6("sift-ec", "low", "read_p50"), 2.0, of=_fig6("raft-r", "low", "read_p50")
    ),
    "fig6.ec_never_beats_sift": _scaled(
        _fig6("sift-ec", "high", "write_p95"), 0.94, of=_fig6("sift", "high", "write_p95")
    ),
    "fig6.rpc_floor": _set(_fig6("raft-r", "low", "read_p50"), 30.0),
    "fig6.epaxos_reads_equal_writes": _set(_fig6("epaxos", "low", "read_p50"), 50.0),
    "fig6.sift_rises_more_than_raft_under_load": _sift_p50_rises_exactly_like_raft,
    "fig6path.rpc_layer_is_half_of_sift_latency": _set(
        ("simulated", "sift", "low", "critical_path", "rpc.kv.put", "aggregate",
         "stages", "ack", "share"),
        0.2,
    ),
    "fig7.throughput_grows_with_cores": _scaled(
        _fig7("sift", 2, 12), 0.9, of=_fig7("sift", 2, 8)
    ),
    "fig7.raft_leads_sift_leads_ec_at_8_cores": _scaled(
        _fig7("sift-ec", 2, 8), 1.0, of=_fig7("sift", 2, 8)
    ),
    "fig7.f2_no_faster_than_f1": _scaled(
        _fig7("raft-r", 2, 12), 1.11, of=_fig7("raft-r", 1, 12)
    ),
    # Upwards: any drop that leaves the band also breaks the curve's growth.
    "fig7.table2_cores_land_in_one_band": _scaled(
        _fig7("sift-ec", 1, 12), 1.7, of=_fig7("sift", 1, 10)
    ),
    # [3] is the 6-backup point, [1] the 2-backup point, [0] no backups.
    "fig8.recovery_falls_with_pool_and_rises_with_groups": _set(
        ("simulated", "500 groups", 3, 1), 0.03
    ),
    "fig8.paper_pool_sizes_suffice": _set(("simulated", "100 groups", 1, 1), 0.05),
    "fig9.lone_group_costs_marginally_more": _set(("simulated", "aws", "sift"), 20.0),
    "fig9.ec_and_shared_backups_save_35_percent": _set(
        ("simulated", "gcp", EC_SHARED), -33.6
    ),
    "fig9.each_technique_lowers_cost": _scaled(
        ("simulated", "aws", "sift-ec"), 1.0, of=("simulated", "aws", "sift")
    ),
    "fig10.ec_alone_saves_13_percent": _set(("simulated", "gcp", "sift-ec"), -18.1),
    "fig10.ec_and_shared_backups_save_56_percent": _set(
        ("simulated", "aws", EC_SHARED), -54.9
    ),
    # [5] is a window between the kill and the rejoin, [9] the one the
    # copy-back dents, [13] one of the two that count as "afterwards".
    "fig11.never_stops_serving": _set(("simulated", "series", 5, 1), 0.0),
    "fig11.dips_during_copy_back": _scaled(
        ("simulated", "series", 9, 1), 1.0, of=("simulated", "series", 8, 1)
    ),
    "fig11.returns_to_pre_failure_level": _scaled(
        ("simulated", "series", 13, 1), 0.6, of=("simulated", "series", 0, 1)
    ),
    # [2] is the last pre-failure window, [3] the one the kill lands in,
    # [12] one of the five that count as "resumed".
    "fig12.pauses_without_a_coordinator": _scaled(
        ("simulated", "series", 3, 1), 1.0, of=("simulated", "series", 2, 1)
    ),
    "fig12.takeover_far_exceeds_detection": _set(("simulated", "serving_s"), 0.34),
    "fig12.resumes_at_pre_failure_level": _set(("simulated", "series", 12, 1), 0.0),
    "fig5ablate.full_stack_speedup": _ablate_just_under_floor,
    "fig8live.live_pool_matches_model": _set(
        ("simulated", "sharded/3", "agrees"), False
    ),
    "figMclients.million_clients": _set(("params", "n_clients"), 999_999),
    "figMclients.underload_keeps_up": _set(
        ("simulated", "sharded/x0.25", "shed", "queue"), 1
    ),
    "figMclients.overload_sheds": _set(
        ("simulated", "sharded/x1.5", "shed"), {"queue": 0, "throttle": 0}
    ),
    "figMclients.every_level_records_slo": _set(
        ("simulated", "sharded/x0.75", "slo"), {}
    ),
    "figHotspot.autoscaled_tail_beats_static": _hotspot_tail_tie,
    "figHotspot.autoscaled_pool_is_cheaper": _hotspot_pool_tie,
    "figHotspot.reconciler_split_hot_shard": _set(
        ("simulated", "sharded/autoscaled", "control", "splits"), 0
    ),
    "figHotspot.reconciler_resized_pool": _set(
        ("simulated", "sharded/autoscaled", "control", "pool_resizes"), 0
    ),
    "figHotspot.no_acked_write_lost": _set(
        ("simulated", "sharded/static", "probe", "lost"), 1
    ),
    "figHotspot.histories_linearizable": _set(
        ("simulated", "sharded/autoscaled", "probe", "lincheck_ok"), False
    ),
    "fig11sweep.every_sweep_point_recovers": _set(
        ("simulated", "sift/recovery-f2-p1", "recovery_s"), None
    ),
    "fig11sweep.recovery_strictly_faster": _sweep_tie,
}


@functools.lru_cache(maxsize=None)
def _committed(name):
    return load_artifact(os.path.join(BASELINES, f"BENCH_{name}.json"))


def _baseline(name):
    """A private copy of the committed artifact, free to mutate."""
    return copy.deepcopy(_committed(name))


def _failed(name, doc):
    return cli.failed_gates(name, doc["simulated"], doc["params"])


#: ``<figure>.<gate>`` of every gate in ``FIGURES``.
GATE_NAMES = [
    f"{name}.{gate.__name__}" for name, figure in GATED.items() for gate in figure.gates
]


def test_every_gate_has_a_name_and_a_mutation():
    assert len(GATE_NAMES) == len(set(GATE_NAMES))
    assert sorted(GATE_NAMES) == sorted(MUTATIONS)
    for figure in GATED.values():
        for gate in figure.gates:
            assert gate.__doc__ and gate.__doc__.strip(), gate.__name__


def test_every_figure_is_pinned_and_gated():
    """A figure command either prints a static table or has a committed
    baseline with at least one claim stated on it."""
    assert UNPINNED < set(cli.FIGURES)
    for name, figure in cli.FIGURES.items():
        if name in UNPINNED:
            assert not figure.baseline and not figure.gates, name
        else:
            assert figure.baseline and figure.gates, name
    section_6 = {"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}
    assert section_6 | {"fig5cache", "fig5appliers"} <= set(GATED)


@pytest.mark.parametrize("name", sorted(GATED))
def test_gates_hold_on_the_committed_baseline(name):
    assert _failed(name, _baseline(name)) == []


@pytest.mark.parametrize("target", sorted(MUTATIONS))
def test_mutation_fails_exactly_its_gate(target):
    name = target.split(".")[0]
    doc = _baseline(name)
    MUTATIONS[target](doc)
    assert _failed(name, doc) == [target]


#: What the one point of each ``single``-shaped figure returns, in the
#: order its point function builds it.
SINGLE_RUN_KEYS = {
    "fig8": [f"{groups} groups" for groups in _committed("fig8")["params"]["groups"]],
    "fig11": ["series", "events", "recovery_s"],
    "fig12": ["series", "events", "killed_s", "serving_s", "replayed"],
}


def declared_order(name):
    """``simulated``'s key order in a live run: the figure's own point
    list through its own shape, built from the committed ``params``.  A
    loaded artifact iterates in sorted-key order."""
    figure = cli.FIGURES[name]
    if figure.shape is cli.single:
        return SINGLE_RUN_KEYS[name]
    params = _committed(name)["params"]
    results = {point.key: {} for point in figure.points(params, SMOKE_SCALE, 1)}
    return list(figure.shape(results, params))


@pytest.mark.parametrize("target", sorted(MUTATIONS))
def test_verdicts_do_not_depend_on_dict_order(target):
    name = target.split(".")[0]
    declared = declared_order(name)
    clean, broken = _baseline(name), _baseline(name)
    MUTATIONS[target](broken)
    for doc in (clean, broken):
        loaded = list(doc["simulated"])
        assert loaded == sorted(declared)
        # Declared order equals sorted order for several of the figures,
        # so the reverse is tried too: any positional addressing shows.
        for order in (declared, loaded[::-1]):
            reordered = dict(doc, simulated={k: doc["simulated"][k] for k in order})
            assert _failed(name, reordered) == _failed(name, doc)


def test_full_stack_floor_is_125_percent_of_plain():
    """The deterministic perf floor perfbench used to hold, now read off
    the byte-pinned baseline: 1.2681x at the committed smoke scale."""
    doc = _baseline("fig5ablate")
    cells = doc["simulated"]
    ratio = cells["coalesce+doorbell"]["ops_per_sec"] / cells["plain"]["ops_per_sec"]
    assert 1.25 <= ratio == pytest.approx(1.2681, abs=5e-5)
    cells["coalesce+doorbell"]["ops_per_sec"] = 1.25 * cells["plain"]["ops_per_sec"]
    assert cli.full_stack_speedup(cells, doc["params"])  # the floor is inclusive


def _both(*edits):
    def mutate(doc):
        for edit in edits:
            edit(doc)

    return mutate


def _flat_timeline(pre, post):
    """Every window before the failure at *pre* ops/s, every later one at
    *post* (fig11 and fig12 both fail at 0.3 s)."""

    def mutate(doc):
        for window in doc["simulated"]["series"]:
            window[1] = pre if window[0] + 0.1 <= 0.3 else post

    return mutate


#: Threshold gates at their threshold: ``(figure, gate, edit, verdict)``.
#: The edits write round numbers on both sides of the comparison so the
#: boundary is exact in floating point.
BOUNDARIES = [
    # Strictly more than 1.5x EPaxos.
    ("fig5", cli.leaders_beat_epaxos_on_reads, _both(
        _set(_fig5("epaxos", "read-heavy"), 200_000.0),
        _set(_fig5("raft-r", "read-heavy"), 300_000.0)), False),
    ("fig5", cli.leaders_beat_epaxos_on_reads, _both(
        _set(_fig5("epaxos", "read-heavy"), 200_000.0),
        _set(_fig5("raft-r", "read-heavy"), 300_001.0)), True),
    # Strictly inside (0.8x, 1.25x) of Raft-R.
    ("fig5", cli.sift_tracks_raft_on_reads, _both(
        _set(_fig5("raft-r", "read-only"), 400_000.0),
        _set(_fig5("sift", "read-only"), 500_000.0)), False),
    ("fig5", cli.epaxos_flat_across_mixes,
     _set(_fig5("epaxos", "mixed"), 340_500.0), False),  # 1.25 x 272,400
    ("fig5cache", cli.half_cache_beats_no_cache, _both(
        _set(_knob("cache_fraction", 0.0), 400_000.0),
        _set(_knob("cache_fraction", 0.5), 440_000.0)), False),
    ("fig5cache", cli.more_cache_never_hurts, _both(
        _set(_knob("cache_fraction", 0.0), 400_000.0),
        _set(_knob("cache_fraction", 0.1), 380_000.0)), True),  # 0.95x is allowed
    ("fig5appliers", cli.concurrent_appliers_pay, _both(
        _set(_knob("apply_workers", 1), 100_000.0),
        _set(_knob("apply_workers", 8), 130_000.0)), False),
    ("fig6", cli.rpc_floor, _set(_fig6("sift", "low", "read_p50"), 30.0), False),
    ("fig6", cli.low_load_latencies_similar, _both(
        _set(_fig6("raft-r", "low", "write_p50"), 50.0),
        _set(_fig6("sift", "low", "write_p50"), 100.0),
        _set(_fig6("sift-ec", "low", "write_p50"), 100.0)), False),
    # F=2 may be up to 1.1x F=1, inclusive.
    ("fig7", cli.f2_no_faster_than_f1, _both(
        _set(_fig7("sift", 1, 12), 400_000.0),
        _set(_fig7("sift", 2, 12), 440_000.0)), True),
    # The slowest strictly above 0.6x the fastest: 0.6 x 650k = 390k.
    ("fig7", cli.table2_cores_land_in_one_band, _both(
        _set(_fig7("raft-r", 1, 8), 390_000.0),
        _set(_fig7("sift-ec", 1, 12), 650_000.0)), False),
    ("fig8", cli.paper_pool_sizes_suffice,
     _set(("simulated", "3000 groups", 7, 1), 0.25), False),
    # Within one point of 35% / 56%, five of 13%: inclusive.
    ("fig9", cli.ec_and_shared_backups_save_35_percent,
     _set(("simulated", "aws", EC_SHARED), -36.0), True),
    ("fig9", cli.ec_and_shared_backups_save_35_percent,
     _set(("simulated", "aws", EC_SHARED), -36.5), False),
    ("fig10", cli.ec_and_shared_backups_save_56_percent,
     _set(("simulated", "gcp", EC_SHARED), -55.0), True),
    ("fig10", cli.ec_alone_saves_13_percent,
     _set(("simulated", "aws", "sift-ec"), -8.0), True),
    # Strictly more than 85% of the pre-failure rate.
    ("fig11", cli.returns_to_pre_failure_level, _flat_timeline(100_000.0, 85_000.0), False),
    ("fig11", cli.returns_to_pre_failure_level, _flat_timeline(100_000.0, 85_010.0), True),
    ("fig12", cli.resumes_at_pre_failure_level, _flat_timeline(100_000.0, 85_000.0), False),
    ("fig12", cli.resumes_at_pre_failure_level, _flat_timeline(100_000.0, 85_010.0), True),
    # A dip is strictly below 98% of the pre-failure rate.
    ("fig11", cli.dips_during_copy_back, _flat_timeline(100_000.0, 98_000.0), False),
]


@pytest.mark.parametrize(
    "name,gate,edit,verdict", BOUNDARIES,
    ids=[f"{name}.{gate.__name__}-{verdict}" for name, gate, _edit, verdict in BOUNDARIES],
)
def test_threshold_gates_at_their_threshold(name, gate, edit, verdict):
    doc = _baseline(name)
    assert gate(doc["simulated"], doc["params"])  # holds before the edit
    edit(doc)
    assert gate(doc["simulated"], doc["params"]) is verdict


def test_four_grids_share_one_point_function():
    """fig5, fig7 and the two ablations are grids over
    ``points.throughput_point``: where they name the same (system,
    workload, clients, cores) they hold the same cell, to the byte.
    fig5ablate's plain stack is that cell too, under two more fields."""
    fig5 = _committed("fig5")["simulated"]
    fig7 = _committed("fig7")["simulated"]
    for system in points.FIG7_SYSTEMS:
        assert fig7[f"{system}/f1/c12"] == fig5[system]["read-heavy"], system
    cache = _committed("fig5cache")["simulated"]
    assert cache["sift/cache_fraction=0.5"] == fig5["sift"]["read-heavy"]
    appliers = _committed("fig5appliers")["simulated"]
    assert appliers["sift/apply_workers=8"] == fig5["sift"]["write-only"]
    plain = _committed("fig5ablate")["simulated"]["plain"]
    assert fig5["sift"]["write-only"].items() <= plain.items()
    clients = {
        _committed(name)["params"]["clients"]
        for name in ("fig5", "fig5ablate", "fig5cache", "fig5appliers", "fig7")
    }
    assert clients == {points.saturation_clients(True, SMOKE_SCALE)}


def test_ci_bench_smoke_runs_exactly_the_pinned_figures():
    """The bench-smoke job's ``FIGURES`` list is written by hand in the
    workflow; a figure missing from it is pinned but never re-run."""
    with open(os.path.join(REPO, ".github", "workflows", "ci.yml")) as fh:
        workflow = fh.read()
    block = re.search(r"^ +FIGURES: >-\n((?: +fig\w+(?: fig\w+)*\n)+)", workflow, re.M)
    assert block, "bench-smoke no longer declares FIGURES as a folded list"
    listed = block.group(1).split()
    assert len(listed) == len(set(listed))
    assert set(listed) == {
        name for name, figure in cli.FIGURES.items() if figure.baseline
    }


def test_experiments_md_states_every_gate_and_no_deleted_harness():
    with open(os.path.join(REPO, "EXPERIMENTS.md")) as fh:
        text = fh.read()
    missing = [gate for gate in GATE_NAMES if f"`{gate}`" not in text]
    assert not missing, f"EXPERIMENTS.md does not name: {missing}"
    assert "benchmarks/test_" not in text


def test_baseline_figures_are_exactly_the_committed_baselines():
    """``--refresh-baselines`` regenerates what CI gates, all of it."""
    expected = {
        f"BENCH_{name}.json" for name, figure in cli.FIGURES.items() if figure.baseline
    }
    committed = {
        os.path.basename(path)
        for path in glob.glob(os.path.join(BASELINES, "BENCH_*.json"))
    }
    assert expected == committed


# -- the declaration behind each pinned figure, on the committed bytes --------

PINNED = sorted(name for name, figure in cli.FIGURES.items() if figure.baseline)


@pytest.mark.parametrize("name", PINNED)
def test_smoke_params_are_the_committed_params(name):
    """Editing a preset without refreshing the baseline fails here, not
    only in bench-smoke.  ``params`` are JSON-native, so no round trip."""
    params = cli.FIGURES[name].params(True, SMOKE_SCALE)
    assert {**params, "scale": asdict(SMOKE_SCALE)} == _committed(name)["params"]


@pytest.mark.parametrize("name", PINNED)
def test_points_are_picklable_calls_of_top_level_functions(name):
    figure = cli.FIGURES[name]
    params = _committed(name)["params"]
    params = {key: value for key, value in params.items() if key != "scale"}
    figure_points = figure.points(params, SMOKE_SCALE, 1)
    assert figure_points
    for point in figure_points:
        assert pickle.loads(pickle.dumps(point)) == point
        assert getattr(sys.modules[point.fn.__module__], point.fn.__name__) is point.fn
        assert "smoke" not in point.kwargs
        inspect.signature(point.fn).bind(**point.kwargs)  # TypeError on a stray kwarg


def _reversed_throughout(node):
    """*node* with every dict, at every depth, iterating backwards."""
    if isinstance(node, dict):
        return {key: _reversed_throughout(node[key]) for key in reversed(list(node))}
    if isinstance(node, list):
        return [_reversed_throughout(item) for item in node]
    return node


@pytest.mark.parametrize("name", PINNED)
def test_render_prints_the_committed_bytes_in_any_key_order(name):
    """The sixteen printers otherwise run only inside bench-smoke."""
    doc = _committed(name)
    simulated, params = doc["simulated"], doc["params"]
    render = cli.FIGURES[name].render
    table = render(simulated, params)
    assert isinstance(table, str) and len(table.splitlines()) >= 4
    declared = {key: simulated[key] for key in declared_order(name)}
    assert render(declared, params) == table
    assert render(_reversed_throughout(simulated), _reversed_throughout(params)) == table


@pytest.mark.parametrize("name", ["fig9", "fig10", "fig8"])
def test_run_figure_reproduces_the_baseline_without_a_namespace(name, capsys):
    """The exact-arithmetic figures are ordinary points: the programmatic
    entry point returns the committed sections and prints nothing."""
    doc = _committed(name)
    simulated, params, spans = cli.run_figure(name, True, SMOKE_SCALE, seed=1)
    assert simulated == doc["simulated"]
    assert {**params, "scale": asdict(SMOKE_SCALE)} == doc["params"]
    assert spans is None
    assert capsys.readouterr() == ("", "")


# -- the one place gates are evaluated: _run_one, feeding main()'s exit code --


def _holds(_simulated, params):
    """The stub's params say so."""
    return params["ok"]


def _stub_point(**cell):
    return cell


def _stub(ok, **cell):
    """A one-point figure whose gate holds iff *ok*; *cell* is what the
    point returns beside ``x``."""
    return cli.Figure(
        lambda _smoke, _scale: {"ok": ok, "trace_cell": "stub/x"},
        lambda _params, _scale, _seed: [Point("stub/x", _stub_point, dict(cell, x=1))],
        lambda simulated, _params: f"x = {simulated['x']}",
        gates=(_holds,),
        shape=cli.single,
    )


@pytest.mark.parametrize("ok", [True, False])
def test_main_exits_1_and_prints_gate_fail_iff_a_gate_failed(
    ok, monkeypatch, tmp_path, capsys
):
    monkeypatch.setitem(cli.FIGURES, "stub", _stub(ok))
    code = cli.main(["fig9", "stub", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == (0 if ok else 1)
    assert ("GATE FAIL stub._holds" in err) == (not ok)
    assert "GATE FAIL fig9" not in err
    # Outside --refresh-baselines the artifact is written either way: a
    # failing run's numbers are what CI uploads for the post-mortem.
    assert load_artifact(str(tmp_path / "BENCH_stub.json"))["params"]["ok"] is ok


def test_no_artifact_still_checks_gates(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.FIGURES, "stub", _stub(False))
    assert cli.main(["stub", "--no-artifact", "--out-dir", str(tmp_path)]) == 1
    assert "GATE FAIL stub._holds" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_refresh_never_writes_a_baseline_that_fails_its_gates(
    monkeypatch, tmp_path, capsys
):
    stale = tmp_path / "BENCH_bad.json"
    stale.write_text("the committed baseline\n")
    monkeypatch.setattr(cli, "FIGURES", {
        "good": _stub(True),
        "bad": _stub(False),
        "unpinned": cli.Command(lambda _args, _scale: pytest.fail("not a baseline")),
    })
    monkeypatch.setattr(cli, "_baselines_dir", lambda: str(tmp_path))
    assert cli.main(["--refresh-baselines"]) == 1
    assert "GATE FAIL bad._holds" in capsys.readouterr().err
    assert stale.read_text() == "the committed baseline\n"
    assert json.loads((tmp_path / "BENCH_good.json").read_text())["figure"] == "good"
    assert sorted(os.listdir(tmp_path)) == ["BENCH_bad.json", "BENCH_good.json"]


#: One span in the shape ``Span.to_dict()`` exports.
SPAN = {"span_id": 1, "parent_id": None, "name": "op", "start_us": 0.0, "end_us": 1.0,
        "attrs": {}}


def test_the_trace_is_written_after_the_gate_check(monkeypatch, tmp_path, capsys):
    """A point's exported spans are filed as ``TRACE_<figure>.json`` by
    ``_run_one`` under the artifact's own condition: a plain run writes
    it even when a gate fails, ``--refresh-baselines`` leaves the
    committed trace of a failing figure alone."""
    monkeypatch.setattr(cli, "FIGURES", {"stub": _stub(False, spans=[SPAN])})
    monkeypatch.setattr(cli, "_baselines_dir", lambda: str(tmp_path))
    trace = tmp_path / "TRACE_stub.json"
    trace.write_text("the committed trace\n")
    assert cli.main(["--refresh-baselines"]) == 1
    assert trace.read_text() == "the committed trace\n"
    assert os.listdir(tmp_path) == ["TRACE_stub.json"]
    assert cli.main(["stub", "--out-dir", str(tmp_path)]) == 1
    assert "repro stub/x" in trace.read_text()
    assert "spans" not in load_artifact(str(tmp_path / "BENCH_stub.json"))["simulated"]
    capsys.readouterr()


def test_nothing_smuggles_failure_through_args():
    assert "_failed" not in inspect.getsource(cli)
