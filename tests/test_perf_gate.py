"""The perf-regression gate: floors, violations and the --gate exit code.

``run_perfbench`` is monkeypatched to return canned results so these
tests exercise the gate logic (floor loading, dotted-path lookup,
violation reporting, exit codes) without paying for real wall-clock
measurement — the acceptance check that a synthetic regression fails
the lane is the raised-floor case below.
"""

import json

import pytest

from repro.bench import perfbench
from repro.bench.perfbench import check_floors, load_floors

CANNED_RESULTS = {
    "rdma_loopback": {"verbs": 4000, "wall_s": 0.1, "verbs_per_s": 40_000.0},
    "coalesced_fig5": {
        "simulated_speedup": 1.27,
        "driven_speedup": 1.36,
    },
    "openloop_generator": {
        "generation_speedup": 16.0,
        "vector_arrivals_per_s": 6_500_000.0,
        "columns_identical": True,
    },
    "parallel_sweep": {"scaling": 1.0},
}


class TestCheckFloors:
    def test_all_floors_held(self):
        assert check_floors(CANNED_RESULTS, {
            "openloop_generator.generation_speedup": 10.0,
            "coalesced_fig5.driven_speedup": 1.2,
        }) == []

    def test_violation_reports_value_and_floor(self):
        violations = check_floors(CANNED_RESULTS, {
            "coalesced_fig5.driven_speedup": 99.0,
        })
        assert violations == ["coalesced_fig5.driven_speedup: 1.36 < floor 99.00"]

    def test_missing_metric_is_a_violation(self):
        """A renamed or dropped scenario must not silently pass."""
        violations = check_floors(CANNED_RESULTS, {
            "engine.heap_churn.speedup": 1.0,
            "coalesced_fig5.driven_speedup.deeper": 1.0,
        })
        assert len(violations) == 2
        assert all("missing" in v for v in violations)

    def test_exact_floor_passes(self):
        assert check_floors(CANNED_RESULTS, {"parallel_sweep.scaling": 1.0}) == []

    def test_violations_sorted_by_path(self):
        violations = check_floors(CANNED_RESULTS, {
            "openloop_generator.generation_speedup": 99.0,
            "coalesced_fig5.simulated_speedup": 9.0,
        })
        assert [v.split(":")[0] for v in violations] == [
            "coalesced_fig5.simulated_speedup",
            "openloop_generator.generation_speedup",
        ]


class TestLoadFloors:
    def test_committed_floors_file_loads(self):
        """The file CI gates on must parse and hold exactly the three
        ratios perfbench still measures."""
        assert load_floors() == {
            "coalesced_fig5.simulated_speedup": 1.25,
            "coalesced_fig5.driven_speedup": 1.05,
            "openloop_generator.generation_speedup": 10.0,
        }

    def test_committed_floors_hold_on_canned_measurements(self):
        """Floors must sit at or below the measured values recorded in
        the floors file itself (CANNED_RESULTS sits inside the range of
        those measurements)."""
        assert check_floors(CANNED_RESULTS, load_floors()) == []

    def test_override_path(self, tmp_path):
        path = tmp_path / "floors.json"
        path.write_text(json.dumps({"floors": {"a.b": 2}}))
        assert load_floors(path) == {"a.b": 2.0}


class TestGateExitCodes:
    @pytest.fixture
    def canned_perfbench(self, monkeypatch):
        calls = {}

        def fake_run_perfbench(rdma_verbs, repeat, **_kwargs):
            calls.update(rdma_verbs=rdma_verbs, repeat=repeat)
            return json.loads(json.dumps(CANNED_RESULTS))

        monkeypatch.setattr(perfbench, "run_perfbench", fake_run_perfbench)
        return calls

    def _floors_file(self, tmp_path, floors):
        path = tmp_path / "floors.json"
        path.write_text(json.dumps({"floors": floors}))
        return str(path)

    def test_gate_passes_on_healthy_ratios(self, canned_perfbench, tmp_path, capsys):
        rc = perfbench.main([
            "--quick", "--gate", "--out-dir", str(tmp_path / "out"),
            "--floors", self._floors_file(
                tmp_path, {"coalesced_fig5.driven_speedup": 1.15}),
        ])
        assert rc == 0
        assert "PERF-GATE OK" in capsys.readouterr().err

    def test_gate_fails_on_synthetic_regression(
        self, canned_perfbench, tmp_path, capsys
    ):
        """Raising a floor above the measured ratio simulates a
        regression; the gate must exit non-zero and name the metric."""
        rc = perfbench.main([
            "--quick", "--gate", "--out-dir", str(tmp_path / "out"),
            "--floors", self._floors_file(
                tmp_path, {"openloop_generator.generation_speedup": 50.0,
                           "coalesced_fig5.driven_speedup": 1.2}),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "PERF-GATE FAIL openloop_generator.generation_speedup" in err
        # Only the regressed metric is reported.
        assert "driven_speedup" not in err.split("PERF-GATE", 1)[1]

    def test_gate_forces_multiple_repetitions(self, canned_perfbench, tmp_path):
        """--quick alone measures best-of-1; under --gate a single noisy
        repetition must not be able to fail the lane."""
        perfbench.main([
            "--quick", "--gate", "--out-dir", str(tmp_path / "out"),
            "--floors", self._floors_file(tmp_path, {}),
        ])
        assert canned_perfbench["repeat"] >= 2
        assert canned_perfbench["rdma_verbs"] <= 2_000

    def test_no_gate_ignores_floors(self, canned_perfbench, tmp_path):
        """Without --gate the harness never reads a floors file and
        always exits zero (the pre-gate behaviour)."""
        rc = perfbench.main([
            "--quick", "--out-dir", str(tmp_path / "out"),
            "--floors", str(tmp_path / "does-not-exist.json"),
        ])
        assert rc == 0
        assert canned_perfbench["repeat"] == 1
