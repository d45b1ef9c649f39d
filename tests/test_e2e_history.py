"""``tools/e2e_history.py``: one line per benchmark snapshot, read-only."""

import importlib.util
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    path = os.path.join(REPO_ROOT, "tools", "e2e_history.py")
    spec = importlib.util.spec_from_file_location("e2e_history", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ARTIFACT = {
    "benchmark": "e2e",
    "seed": 1,
    "host": {"git_sha": "abc1234", "nproc": 2, "python": "3.11.7", "platform": "x"},
    "workloads": {
        "kv_write_only": {
            "attempted": 9375,
            "failed": 0,
            "end_to_end": {"sim_ops_per_s": 156250.0, "host_ops_per_s": 4900.0},
            "per_layer": {
                "sim.self_share": 0.31219,
                "sim.calls_per_op": 280.54432,
                "net.calls_per_op": 84.48,
                "net.rpc_calls_per_op": 1.0,  # a counter, not a package's calls
                "kv.put_calls_per_op": 1.0,
                "sim.events_per_op": 41.46,
                "bench.build_s": 0.0263,
                "bench.preload_s": 0.0297,
                "bench.loadgen_build_s": 0.0008,
                "bench.warmup_s": 0.12,  # not a part of setup_s
            },
        }
    },
}


def test_appends_one_line_per_artifact(tmp_path):
    tool = _load_tool()
    artifact = tmp_path / "e2e.json"
    artifact.write_text(json.dumps(ARTIFACT))
    history = tmp_path / "history.jsonl"
    for label in ("parent", "change"):
        assert tool.main([str(artifact), "--label", label, "--history", str(history)]) == 0
    lines = [json.loads(line) for line in history.read_text().splitlines()]
    assert [line["label"] for line in lines] == ["parent", "change"]
    workload = lines[0]["workloads"]["kv_write_only"]
    assert lines[0]["git_sha"] == "abc1234"
    assert workload["end_to_end"] == ARTIFACT["workloads"]["kv_write_only"]["end_to_end"]
    assert (workload["attempted"], workload["failed"]) == (9375, 0)
    assert workload["calls_per_op"] == {"net": 84.48, "sim": 280.5443}
    assert workload["self_share"] == {"sim": 0.3122}
    assert workload["setup"] == {
        "bench.build_s": 0.0263,
        "bench.preload_s": 0.0297,
        "bench.loadgen_build_s": 0.0008,
    }


def test_refuses_a_file_that_is_not_the_benchmarks(tmp_path):
    tool = _load_tool()
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"benchmark": "perfbench"}))
    history = tmp_path / "history.jsonl"
    assert tool.main([str(other), "--history", str(history)]) == 1
    assert not history.exists()
