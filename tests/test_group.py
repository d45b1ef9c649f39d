"""Tests for SiftGroup wiring and configuration validation."""

import pytest

from repro.core import SiftConfig, SiftGroup
from repro.net import Fabric
from repro.sim import MS, SEC, Simulator


class TestConfigValidation:
    def test_defaults_valid(self):
        SiftConfig().validate()

    def test_geometry(self):
        config = SiftConfig(fm=2, fc=3)
        assert config.memory_node_count == 5
        assert config.cpu_node_count == 4
        assert config.quorum == 3
        assert config.data_shards == 3
        assert config.parity_shards == 2

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            SiftConfig(fm=-1).validate()

    def test_direct_window_must_fit(self):
        with pytest.raises(ValueError):
            SiftConfig(direct_bytes=2 * 1024 * 1024, data_bytes=1024 * 1024).validate()

    def test_direct_window_must_be_block_aligned(self):
        with pytest.raises(ValueError):
            SiftConfig(direct_bytes=1000, block_bytes=1024).validate()

    def test_wal_payload_must_fit_block(self):
        with pytest.raises(ValueError):
            SiftConfig(block_bytes=2048, wal_payload_bytes=1024).validate()

    def test_heartbeat_budget_checked(self):
        with pytest.raises(ValueError):
            SiftConfig(
                heartbeat_write_interval_us=50_000.0,
                heartbeat_read_interval_us=7_000.0,
            ).validate()

    @pytest.mark.parametrize(
        "knob",
        [
            {"recovery_parallelism": 0},
            {"recovery_chunk_bytes": 0},
            {"memnode_poll_interval_us": 0.0},
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_recovery_settings_the_copy_cannot_run_with(self, knob):
        # Zero readers copy nothing, an empty copy unit cannot tile the
        # image, and a poller that never waits spins at one instant.
        with pytest.raises(ValueError):
            SiftConfig(**knob).validate()

    def test_election_timeout_derivation(self):
        config = SiftConfig(heartbeat_read_interval_us=7_000.0, missed_heartbeats_allowed=3)
        assert config.election_timeout_us == 21_000.0

    def test_chunk_bytes_rounds_up(self):
        config = SiftConfig(fm=2, block_bytes=1040)
        assert config.chunk_bytes == 347  # ceil(1040 / 3)

    def test_memory_node_config_geometry(self):
        config = SiftConfig(fm=1, data_bytes=1 << 20, wal_entries=128)
        node_config = config.memory_node_config()
        assert node_config.wal_entries == 128
        assert node_config.data_bytes == config.node_data_bytes


class TestGroupWiring:
    def test_node_counts(self):
        sim = Simulator()
        fabric = Fabric(sim)
        group = SiftGroup(fabric, SiftConfig(fm=2, fc=1, data_bytes=64 * 1024, wal_entries=32))
        assert len(group.memory_nodes) == 5
        assert len(group.cpu_nodes) == 2

    def test_wait_until_serving_times_out_when_down(self):
        sim = Simulator()
        fabric = Fabric(sim)
        group = SiftGroup(fabric, SiftConfig(data_bytes=64 * 1024, wal_entries=32))

        def scenario():
            try:
                yield from group.wait_until_serving(timeout_us=50 * MS)
            except Exception as exc:
                return type(exc).__name__
            return "served"

        # never started
        process = sim.spawn(scenario())
        sim.run_until_settled(process, deadline=1 * SEC)
        assert process.value == "GroupUnavailable"

    def test_crash_coordinator_without_one_is_noop(self):
        sim = Simulator()
        fabric = Fabric(sim)
        group = SiftGroup(fabric, SiftConfig(data_bytes=64 * 1024, wal_entries=32))
        assert group.crash_coordinator() is None

    def test_memory_nodes_have_minimal_cores(self):
        """§3.1: memory nodes need minimal CPU (Table 2: one core)."""
        sim = Simulator()
        fabric = Fabric(sim)
        group = SiftGroup(fabric, SiftConfig(data_bytes=64 * 1024, wal_entries=32))
        assert all(node.host.cpu.cores == 1 for node in group.memory_nodes)
        assert all(node.host.cpu.cores >= 10 for node in group.cpu_nodes)
