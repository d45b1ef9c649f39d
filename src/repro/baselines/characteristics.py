"""Table 1: comparison of key consensus protocol characteristics.

The table is derived programmatically from the protocol implementations'
own configuration objects where possible (replication factors), with the
qualitative columns recorded as data.  ``python -m repro.bench.cli
table1`` renders it; ``tests/test_baselines_meta.py`` checks it.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["PROTOCOL_CHARACTERISTICS", "characteristics_table", "replication_factor"]

PROTOCOL_CHARACTERISTICS: List[Dict[str, str]] = [
    {
        "type": "Sift",
        "resource_location": "Disaggregated",
        "protocol": "1-sided RDMA",
        "erasure_coding": "Yes",
        "replication_factor": "2Fm + 1, Fc + 1",
    },
    {
        "type": "Raft",
        "resource_location": "Coupled",
        "protocol": "TCP",
        "erasure_coding": "No",
        "replication_factor": "2F + 1",
    },
    {
        "type": "DARE",
        "resource_location": "Coupled",
        "protocol": "1-sided RDMA",
        "erasure_coding": "No",
        "replication_factor": "2F + 1",
    },
    {
        "type": "RS-Paxos",
        "resource_location": "Coupled",
        "protocol": "TCP",
        "erasure_coding": "Yes",
        "replication_factor": "QR + QW - X",
    },
    {
        "type": "Disk Paxos",
        "resource_location": "Disaggregated*",
        "protocol": "Unspecified",
        "erasure_coding": "No",
        "replication_factor": "2F + 1 disks + P + L",
    },
]


def replication_factor(system: str, f: int) -> Dict[str, int]:
    """Concrete node counts for a fault tolerance level *f*.

    Cross-checked in tests against the implementations' own geometry
    (``SiftConfig.memory_node_count`` etc.).
    """
    if system == "sift":
        return {"memory_nodes": 2 * f + 1, "cpu_nodes": f + 1}
    if system in ("raft", "dare", "epaxos"):
        return {"nodes": 2 * f + 1}
    if system == "disk_paxos":
        return {"disks": 2 * f + 1, "proposers": f + 1}
    raise ValueError(f"unknown system: {system}")


def characteristics_table() -> str:
    """Render Table 1 as aligned text."""
    headers = ["Type", "Resource Location", "Protocol", "Erasure Coding", "Replication Factor"]
    keys = ["type", "resource_location", "protocol", "erasure_coding", "replication_factor"]
    rows = [[row[key] for key in keys] for row in PROTOCOL_CHARACTERISTICS]
    widths = [
        max(len(headers[i]), max(len(row[i]) for row in rows)) for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
