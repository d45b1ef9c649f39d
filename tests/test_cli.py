"""Tests for the experiment CLI (cheap commands only)."""

import os

import pytest

from repro.api import SYSTEMS
from repro.bench.cli import _parser, main
from repro.obs.artifact import load_artifact


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1", "--no-artifact"]) == 0
        out = capsys.readouterr().out
        assert "Sift" in out and "Disk Paxos" in out

    def test_table2(self, capsys):
        assert main(["table2", "--no-artifact"]) == 0
        out = capsys.readouterr().out
        assert "10 cores" in out and "22 GB" in out

    def test_fig9_and_fig10(self, capsys, tmp_path):
        assert main(["fig9", "fig10", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "F=1" in out and "F=2" in out
        assert "-35" in out and "-56" in out
        # Every figure driver leaves a validated artifact behind.
        fig9 = load_artifact(str(tmp_path / "BENCH_fig9.json"))
        assert fig9["figure"] == "fig9"
        assert fig9["simulated"]["aws"]
        assert os.path.exists(tmp_path / "BENCH_fig10.json")

    def test_no_artifact_flag(self, capsys, tmp_path):
        assert main(["fig9", "--no-artifact", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert not os.path.exists(tmp_path / "BENCH_fig9.json")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_no_experiments_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_system_choices_are_the_api_systems(self, capsys):
        """The list is stated once: argparse is what rejects an unknown
        ``--system``, before any point function sees it."""
        (system,) = [a for a in _parser()._actions if a.dest == "system"]
        assert system.choices is SYSTEMS
        with pytest.raises(SystemExit) as rejected:
            main(["throughput", "--system", "paxos"])
        assert rejected.value.code == 2
        assert "invalid choice: 'paxos'" in capsys.readouterr().err

    def test_throughput_smoke(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_KEYS", "512")
        monkeypatch.setenv("REPRO_BENCH_MEASURE_MS", "20")
        monkeypatch.setenv("REPRO_BENCH_WARMUP_MS", "10")
        monkeypatch.setenv("REPRO_BENCH_CLIENTS", "4")
        assert main(
            ["throughput", "--system", "raft-r", "--out-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "ops/s" in out
        doc = load_artifact(str(tmp_path / "BENCH_throughput.json"))
        assert doc["seeds"] == [1]
        assert doc["params"]["system"] == "raft-r"
        assert doc["params"]["scale"]["keys"] == 512
        assert doc["simulated"]["ops_per_sec"] > 0
        # The registry snapshot rode along: wire traffic was counted.
        assert any(
            k.startswith("net.messages") for k in doc["registry"]["counters"]
        )
        assert doc["registry"]["gauges"]["bench.throughput_ops"] > 0
