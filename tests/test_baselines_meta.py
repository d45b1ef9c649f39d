"""Tests for the protocol-characteristics data (Table 1 source)."""

import pytest

from repro.baselines import PROTOCOL_CHARACTERISTICS, characteristics_table
from repro.baselines.characteristics import replication_factor
from repro.baselines.epaxos import EPaxosConfig
from repro.baselines.raft import RaftConfig
from repro.core import SiftConfig


class TestTable1Data:
    def test_five_protocols_listed(self):
        names = [row["type"] for row in PROTOCOL_CHARACTERISTICS]
        assert names == ["Sift", "Raft", "DARE", "RS-Paxos", "Disk Paxos"]

    def test_sift_row(self):
        sift = PROTOCOL_CHARACTERISTICS[0]
        assert sift["resource_location"] == "Disaggregated"
        assert sift["protocol"] == "1-sided RDMA"
        assert sift["erasure_coding"] == "Yes"
        assert "2Fm + 1" in sift["replication_factor"]

    def test_comparison_rows(self):
        rows = {row["type"]: row for row in PROTOCOL_CHARACTERISTICS}
        assert rows["Raft"]["resource_location"] == "Coupled"
        assert rows["DARE"]["protocol"] == "1-sided RDMA"
        assert rows["RS-Paxos"]["erasure_coding"] == "Yes"

    def test_rendered_table_contains_all_rows(self):
        table = characteristics_table()
        for row in PROTOCOL_CHARACTERISTICS:
            assert row["type"] in table

    def test_replication_factors_match_implementations(self):
        for f in (1, 2, 3):
            sift = SiftConfig(fm=f, fc=f)
            assert replication_factor("sift", f) == {
                "memory_nodes": sift.memory_node_count,
                "cpu_nodes": sift.cpu_node_count,
            }
            assert replication_factor("raft", f)["nodes"] == RaftConfig(f=f).nodes
            assert replication_factor("epaxos", f)["nodes"] == EPaxosConfig(f=f).nodes

    def test_epaxos_quorum_sizes(self):
        """EPaxos fast quorum F + floor((F+1)/2), including the leader."""
        assert EPaxosConfig(f=1).fast_quorum == 2
        assert EPaxosConfig(f=2).fast_quorum == 3
        assert EPaxosConfig(f=1).slow_quorum == 2

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            replication_factor("zab", 1)
