"""Figure gates: named predicates, checked where the data already is.

A gate is a pure function of an artifact's ``(simulated, params)``
sections, listed beside its figure in ``repro.bench.cli.FIGURES``.  The
committed baselines are byte-pinned by CI, so evaluating the gates on
them here proves each property of the numbers the repo publishes
without running a figure; one minimal mutation per gate proves each
gate can fail, and fails alone.
"""

import glob
import inspect
import json
import os

import pytest

from repro.bench import cli, points
from repro.bench.calibration import SMOKE_SCALE
from repro.obs.artifact import load_artifact

BASELINES = cli._baselines_dir()

GATED = {name: figure for name, figure in cli.FIGURES.items() if figure.gates}


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


#: ``figure.gate`` -> the smallest edit of the committed baseline that
#: must fail that gate and no other.
MUTATIONS = {
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


def _baseline(name):
    return load_artifact(os.path.join(BASELINES, f"BENCH_{name}.json"))


def _failed(name, doc):
    return cli.failed_gates(name, doc["simulated"], doc["params"])


def test_every_gate_has_a_name_and_a_mutation():
    names = [
        f"{name}.{gate.__name__}" for name, figure in GATED.items()
        for gate in figure.gates
    ]
    assert len(names) == len(set(names)) == 14
    assert set(names) == set(MUTATIONS)
    for figure in GATED.values():
        assert figure.baseline, "a gated figure without a baseline is never checked"
        for gate in figure.gates:
            assert gate.__doc__, gate.__name__


@pytest.mark.parametrize("name", sorted(GATED))
def test_gates_hold_on_the_committed_baseline(name):
    assert _failed(name, _baseline(name)) == []


@pytest.mark.parametrize("target", sorted(MUTATIONS))
def test_mutation_fails_exactly_its_gate(target):
    name = target.split(".")[0]
    doc = _baseline(name)
    MUTATIONS[target](doc)
    assert _failed(name, doc) == [target]


def _keys(figure_points):
    return [point.key for point in figure_points]


#: ``simulated``'s key order in a live run (insertion order of the
#: figure's points); a loaded artifact iterates in sorted-key order.
DECLARED = {
    "fig5ablate": [key for key, _coalesce, _doorbell in points.FIG5ABLATE_GRID],
    "fig8live": _keys(points.fig8live_points(SMOKE_SCALE, 1, True)),
    "figMclients": _keys(points.figMclients_points(SMOKE_SCALE, 1, True)),
    "figHotspot": _keys(points.figHotspot_points(SMOKE_SCALE, 1, True)),
    "fig11sweep": _keys(points.fig11sweep_points(SMOKE_SCALE, 1, True)),
}


@pytest.mark.parametrize("target", sorted(MUTATIONS))
def test_verdicts_do_not_depend_on_dict_order(target):
    name = target.split(".")[0]
    declared = DECLARED[name]
    clean, broken = _baseline(name), _baseline(name)
    MUTATIONS[target](broken)
    for doc in (clean, broken):
        loaded = list(doc["simulated"])
        assert loaded == sorted(declared)
        # Declared order equals sorted order for three of the figures, so
        # the reverse is tried too: any positional addressing shows.
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


# -- the one place gates are evaluated: _run_one, feeding main()'s exit code --


def _holds(_simulated, params):
    """The stub's params say so."""
    return params["ok"]


def _stub(ok):
    return cli.Figure(
        lambda _args, _scale: {"simulated": {"x": 1}, "params": {"ok": ok}},
        gates=(_holds,),
        baseline=True,
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
        "unpinned": cli.Figure(lambda _args, _scale: pytest.fail("not a baseline")),
    })
    monkeypatch.setattr(cli, "_baselines_dir", lambda: str(tmp_path))
    assert cli.main(["--refresh-baselines"]) == 1
    assert "GATE FAIL bad._holds" in capsys.readouterr().err
    assert stale.read_text() == "the committed baseline\n"
    assert json.loads((tmp_path / "BENCH_good.json").read_text())["figure"] == "good"
    assert sorted(os.listdir(tmp_path)) == ["BENCH_bad.json", "BENCH_good.json"]


def test_nothing_smuggles_failure_through_args():
    assert "_failed" not in inspect.getsource(cli)
