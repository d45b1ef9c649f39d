"""Sift deployment configuration.

Defaults mirror the paper's experimental setup (§6.2) where one is
stated; timing constants that the paper leaves implicit are documented
with the sentence that constrains them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.memory_node import MemoryNodeConfig

__all__ = ["SiftConfig", "CpuCosts"]


@dataclass(frozen=True)
class CpuCosts:
    """Coordinator-side CPU charges, in core-microseconds.

    These are the calibration constants behind Figure 7: Sift needs more
    cores than Raft-R at equal throughput because of "the larger amount
    of work being performed in the background to apply writes" (§6.3.2).
    """

    rdma_post_us: float = 0.4
    """Posting a verb / reaping a completion."""

    request_us: float = 4.0
    """Base bookkeeping per client request inside the replicated-memory layer."""

    log_append_us: float = 2.0
    """Building a WAL slot image (header, CRC) before posting the writes."""

    apply_entry_us: float = 6.0
    """Background work to apply one committed entry to replicated memory."""

    ec_encode_us_per_kb: float = 12.0
    """Cauchy RS encoding cost per KiB of block data (calibrated so the
    Sift EC knee in Figure 7 lands ~2 cores above plain Sift's)."""

    ec_decode_us_per_kb: float = 12.0
    """Decode cost per KiB when a read must rebuild from parity chunks."""

    lock_us: float = 0.5
    """Acquiring/releasing one block lock."""


@dataclass(frozen=True)
class SiftConfig:
    """Everything needed to deploy one Sift group."""

    fm: int = 1
    """Tolerated memory-node failures; the group runs 2*fm + 1 memory nodes."""

    fc: int = 1
    """Tolerated CPU-node failures; the group runs fc + 1 CPU nodes."""

    erasure_coding: bool = False
    """Enable Sift EC (§5.1): split blocks into fm+1 data + fm parity chunks."""

    data_bytes: int = 4 * 1024 * 1024
    """Size of the logical replicated memory exposed to applications."""

    direct_bytes: int = 0
    """Prefix of the address space writable without logging (§3.3.2).

    Stored un-encoded on every node even in EC mode, because direct
    writers (like the KV store's own WAL) manage recovery themselves.
    """

    block_bytes: int = 1024
    """Lock granularity and the erasure-coding block size B."""

    wal_entries: int = 32 * 1024
    """Replicated-memory WAL capacity (§6.2: 32k entries)."""

    wal_payload_bytes: int = 1_088
    """Maximum logged write size (a KV block plus headers fits)."""

    heartbeat_write_interval_us: float = 2_000.0
    """Coordinator lease renewal period.

    Must be at most heartbeat_read_interval / missed allowed so a deposed
    coordinator notices before the new one starts serving (§3.2).
    """

    heartbeat_read_interval_us: float = 7_000.0
    """§6.5: "a heartbeat read interval of 7ms"."""

    missed_heartbeats_allowed: int = 3
    """§6.5: "a tolerance of three missed heartbeats" (~21 ms detection)."""

    election_backoff_min_us: float = 200.0
    election_backoff_max_us: float = 4_000.0
    """Randomized back-off window between failed election rounds (§3.4)."""

    verb_timeout_us: float = 1_000.0
    """Retry-exhaustion budget for one-sided verbs."""

    memnode_poll_interval_us: float = 500_000.0
    """§3.4.2: the background recovery thread polls failed nodes periodically."""

    recovery_chunk_bytes: int = 64 * 1024
    """Incremental copy unit for memory-node recovery (read-lock granularity)."""

    recovery_parallelism: int = 8
    """Concurrent chunk copies during memory-node recovery.  The paper's
    implementation "aggressively copies data to the new memory node to
    bring it back into the system as quickly as possible" (§6.5) — the
    resulting bandwidth contention is Figure 11's throughput dip.  Set
    to 1 for a gentle copy that trades recovery time for steadier
    throughput (the flexibility §6.5 points out)."""

    recovery_partitions: int = 1
    """Partition count for RAMCloud-style parallel memory-node recovery.

    ``1`` (the default) copies through the coordinator, which reads
    each fragment and writes it to the node (§3.4.2).  Values above one
    split the node image into that many contiguous ranges (see
    :mod:`repro.core.partition`) and stream each range from a live
    source node *directly* to the rejoining node, so the aggregate copy
    bandwidth scales with the number of source links instead of being
    bottlenecked on the coordinator's NIC.  Erasure-coded groups always
    copy through the coordinator regardless of this knob, because
    only the coordinator can decode and re-encode the target's chunks.
    """

    max_apply_inflight: int = 16
    """Outstanding background apply verbs per memory node."""

    cpu_node_cores: int = 10
    """Table 2: Sift CPU nodes were provisioned with 10 cores (12 for EC)."""

    memory_node_cores: int = 1
    """Table 2: memory nodes need a single core."""

    costs: CpuCosts = field(default_factory=CpuCosts)

    # -- derived geometry ------------------------------------------------------

    @property
    def memory_node_count(self) -> int:
        """2Fm + 1 (§3.1)."""
        return 2 * self.fm + 1

    @property
    def cpu_node_count(self) -> int:
        """Fc + 1 (§3.1)."""
        return self.fc + 1

    @property
    def quorum(self) -> int:
        """Majority of memory nodes."""
        return self.fm + 1

    @property
    def data_shards(self) -> int:
        """EC data chunks per block (Fm + 1)."""
        return self.fm + 1

    @property
    def parity_shards(self) -> int:
        """EC parity chunks per block (Fm)."""
        return self.fm

    @property
    def chunk_bytes(self) -> int:
        """Stored bytes per node per block in EC mode (padded ceil(B/k))."""
        k = self.data_shards
        return (self.block_bytes + k - 1) // k

    @property
    def encoded_bytes(self) -> int:
        """Logical bytes in the encoded zone of the address space."""
        return self.data_bytes - self.direct_bytes

    @property
    def encoded_blocks(self) -> int:
        """Number of EC blocks in the encoded zone."""
        return (self.encoded_bytes + self.block_bytes - 1) // self.block_bytes

    @property
    def node_data_bytes(self) -> int:
        """Replicated-memory bytes stored per memory node."""
        if not self.erasure_coding:
            return self.data_bytes
        return self.direct_bytes + self.encoded_blocks * self.chunk_bytes

    @property
    def election_timeout_us(self) -> float:
        """Reads without a fresh heartbeat before a follower runs (§3.2)."""
        return self.heartbeat_read_interval_us * self.missed_heartbeats_allowed

    def memory_node_config(self) -> MemoryNodeConfig:
        """Geometry handed to each :class:`~repro.storage.MemoryNode`."""
        return MemoryNodeConfig(
            wal_entries=self.wal_entries,
            wal_payload_bytes=self.wal_payload_bytes,
            data_bytes=self.node_data_bytes,
        )

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.fm < 0 or self.fc < 0:
            raise ValueError("fm and fc must be non-negative")
        if self.direct_bytes > self.data_bytes:
            raise ValueError("direct_bytes cannot exceed data_bytes")
        if self.direct_bytes % self.block_bytes:
            raise ValueError("direct_bytes must be block-aligned")
        if self.wal_payload_bytes < self.block_bytes:
            raise ValueError("wal_payload_bytes must fit one block write")
        hb_budget = self.heartbeat_write_interval_us * 2
        if hb_budget > self.election_timeout_us:
            raise ValueError(
                "heartbeat writes too slow for the election timeout: a live "
                "coordinator would be deposed"
            )
        for knob in ("recovery_partitions", "recovery_parallelism", "recovery_chunk_bytes"):
            if getattr(self, knob) < 1:
                raise ValueError(f"{knob} must be >= 1, got {getattr(self, knob)}")
        if self.memnode_poll_interval_us <= 0:
            raise ValueError(
                f"memnode_poll_interval_us must be > 0, got {self.memnode_poll_interval_us}"
            )
