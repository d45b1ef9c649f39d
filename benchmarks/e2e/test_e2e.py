"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They drive ``run.main`` with one round and shrunken windows (the same
code path as the real command, about a minute in all) and check the
pieces a later issue will lean on: the manifest names exactly what is
emitted, the slice-minimum estimator, the profile buckets, the
determinism and safety checks, and that the benchmark stays on the
surfaces ROADMAP item 2 keeps.
"""

import ast
import contextlib
import io
import json
import os

import pytest

import check_repeat
import layers
import run
import scenarios
from scenarios import SCENARIOS, CorrectnessError

HERE = os.path.dirname(os.path.abspath(__file__))
#: fault_timeline cannot shrink: the memory-node copy-back takes the
#: simulated time it takes, and the window must contain it.
WINDOW_SCALE = {name: 0.1 for name in SCENARIOS}
WINDOW_SCALE["fault_timeline"] = 1.0


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """The harness line of every workload, for ``--trace 0`` and ``1``."""
    out = str(tmp_path_factory.mktemp("e2e"))
    lines = {}
    for name in SCENARIOS:
        for trace in (0, 1):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = run.main(
                    ["--workload", name, "--seed", "3", "--rounds", "1", "--trace", str(trace),
                     "--window-scale", str(WINDOW_SCALE[name]), "--out", out]
                )
            assert code == 0
            lines[name, trace] = json.loads(printed.getvalue().splitlines()[-1])
    return lines, out


def test_manifest_names_what_the_code_defines(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(SCENARIOS)
    assert [w["why"] for w in manifest["workloads"]] == [s.why for s in SCENARIOS.values()]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == list(layers.PER_LAYER)
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in {m["name"] for m in manifest["end_to_end"]}


def test_every_named_metric_is_emitted_and_no_other(manifest, emitted):
    lines, _out = emitted
    wanted = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    for (name, trace), line in lines.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == wanted[trace], (name, trace)
        for key, entry in line["metrics"].items():
            assert isinstance(entry["value"], (int, float)), (name, key)


def test_each_workload_stresses_its_layer(emitted):
    lines, out = emitted
    layer = {name: lines[name, 1]["metrics"] for name in SCENARIOS}

    def value(name, key):
        return layer[name][key]["value"]

    for key in ("rdma.calls_per_op", "sim.events_per_op"):
        assert value("kv_write_only", key) >= 3 * value("kv_read_heavy", key), key
    assert value("openloop_overload", "workloads.shed_queue") > 0
    assert value("openloop_overload", "workloads.errors") == 0
    assert lines["openloop_overload", 1]["failed"] > 0
    assert value("fault_timeline", "sim_downtime_ms") > 0
    assert value("fault_timeline", "sim_recovery_ms") > 0
    assert value("fault_timeline", "core.nodes_recovered") == 1
    for name in ("kv_read_heavy", "kv_write_only"):
        assert lines[name, 0]["failed"] == 0
        assert value(name, "sim_downtime_ms") == 0
    # The profiled pass leaves its raw profile and the layer-boundary table.
    for name in SCENARIOS:
        assert os.path.getsize(os.path.join(out, name + ".pstats")) > 0
        with open(os.path.join(out, name + ".layers.json")) as handle:
            table = json.load(handle)
        assert table["kv"]["core"] > 0 and table["core"]["rdma"] > 0
    with open(os.path.join(out, "e2e_fault_timeline.json")) as handle:
        artifact = json.load(handle)
    assert {"nproc", "platform", "python", "numpy", "git_sha"} <= set(artifact["host"])
    delays = artifact["workloads"]["fault_timeline"]["injected_delays"]
    assert delays["rpc_one_way"]["base_us"] > 0 and delays["rdma_verb_overhead_us"] > 0


def test_slice_minimum_ignores_a_disturbance_that_moves():
    quiet = [0.10, 0.20, 0.30, 0.40]
    rounds = [list(quiet) for _ in range(4)]
    for index, disturbed in enumerate(rounds):
        disturbed[index] *= 1.3  # a different slice of every round
    assert run.slice_minimum(rounds) == pytest.approx(sum(quiet))
    assert min(sum(r) for r in rounds) > sum(quiet)  # best-of-K is not rid of it
    for disturbed in rounds:
        disturbed[2] = 0.39  # the same slice of every round: it shows
    assert run.slice_minimum(rounds) == pytest.approx(0.10 + 0.20 + 0.39 + 0.40)
    with pytest.raises(ValueError):
        run.slice_minimum([[0.1, 0.2], [0.1]])


@pytest.mark.parametrize(
    "path, package",
    [
        ("/x/src/repro/sim/engine.py", "sim"),
        ("/x/src/repro/workloads/openloop.py", "workloads"),
        ("/x/site-packages/repro/bench/metrics.py", "bench"),
        ("/x/src/repro/api.py", "other"),
        ("/x/src/repro/ec/gf256.py", "other"),
        ("/usr/lib/python3.11/random.py", "other"),
        ("", "other"),
        (os.path.join(HERE, "scenarios.py"), "bench"),
    ],
)
def test_profile_entries_land_in_their_package(path, package):
    assert layers.package_of(path) == package
    assert package in layers.PACKAGES


def test_rounds_must_agree_bit_for_bit():
    def fake(ops_per_s):
        return scenarios.Run(
            sim={"sim_ops_per_s": ops_per_s}, attempted=10, failed=0, completed=10,
            window_us=1.0, build_s=0.0, preload_s=0.0, loadgen_build_s=0.0, warmup_s=0.0,
            slice_s=[0.1], loadgen={}, coordinator_cores={}, injected_delays={},
        )

    worker = run.Worker(SCENARIOS["kv_read_heavy"], seed=1, window_scale=1.0, out_dir="")
    worker.rounds.append(fake(1000.0))
    worker._agree(fake(1000.0), "round 2")
    with pytest.raises(CorrectnessError, match="sim_ops_per_s"):
        worker._agree(fake(1000.0000001), "round 2")


def test_a_lost_acked_write_fails_the_probe_check():
    from repro.api import Cluster

    cluster = Cluster.build("sift", seed=0, scale=scenarios.SCALE, cores=4)
    cluster.wait_ready()
    probe = scenarios.Probe(cluster)
    cluster.run(until=cluster.sim.now + 20 * scenarios.PROBE_PERIOD_US)
    assert probe.acked
    probe.acked[min(probe.acked)] = b"a value nobody wrote"
    with pytest.raises(CorrectnessError, match="lost"):
        probe.check("test")


def test_check_repeat_flags_what_differs(capsys):
    def result(ops, host):
        return {
            "w": {
                "attempted": 10, "failed": 0, "completed": 10,
                "end_to_end": {
                    "sim_ops_per_s": ops, "sim_p50_us": 5.0, "sim_p99_us": 9.0,
                    "host_ops_per_s": host, "setup_s": 0.1, "peak_rss_mb": 100.0,
                },
                "per_layer": {"sim_downtime_ms": 0.0, "sim_recovery_ms": 0.0},
            }
        }

    assert check_repeat.compare(result(1000.0, 50.0), result(1000.0, 51.0)) == 0
    assert check_repeat.compare(result(1000.0, 50.0), result(1000.5, 50.0)) == 1
    assert check_repeat.compare(result(1000.0, 50.0), result(1000.0, 35.0)) == 1
    assert "BREACH" in capsys.readouterr().out


FORBIDDEN_MODULES = (
    "repro.compat", "repro.sim.reference", "repro.bench.points",
    "repro.bench.cli", "repro.bench.perfbench",
)


@pytest.mark.parametrize("filename", ["run.py", "scenarios.py", "layers.py", "check_repeat.py"])
def test_benchmark_stays_on_the_surfaces_that_are_kept(filename):
    """ROADMAP item 2 deletes shims, the reference engine, the figure
    drivers, ``.stats`` dicts and private attributes; none may be used."""
    with open(os.path.join(HERE, filename)) as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            modules += [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            modules = []
        for module in modules:
            assert not module.startswith(FORBIDDEN_MODULES), (filename, module)
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("stats", "SIMULATOR_FACTORY"), (filename, node.lineno)
            private = node.attr.startswith("_") and not node.attr.startswith("__")
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            assert not private or on_self, (filename, node.lineno, node.attr)
        if isinstance(node, ast.Name):
            assert node.id != "SIMULATOR_FACTORY", (filename, node.lineno)
