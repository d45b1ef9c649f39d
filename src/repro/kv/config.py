"""Key-value store configuration.

Defaults reproduce the paper's setup (§6.2): 1M keys, 32-byte keys,
992-byte values, a cache sized for 50% of the pairs, a 12.5% index load
factor, and a 64k-entry circular write-ahead log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SiftConfig

__all__ = ["KvConfig"]


@dataclass(frozen=True)
class KvConfig:
    """Geometry and cost knobs for one KV store instance."""

    max_keys: int = 1_000_000
    """Capacity in key-value pairs (= number of data blocks)."""

    key_bytes: int = 32
    """§6.2: "a maximum key size of 32 bytes"."""

    value_bytes: int = 992
    """§6.2: "a maximum value size of 992 bytes"."""

    index_load_factor: float = 0.125
    """§6.2: "the index table has a maximum load factor of 12.5%"."""

    cache_fraction: float = 0.5
    """§6.2: "the cache is set to hold up to 50% of the key-value pairs"."""

    wal_entries: int = 64 * 1024
    """§6.2: "the key-value store's circular write-ahead log can hold up
    to 64k entries"."""

    watermark_interval: int = 1024
    """Applied-sequence watermark persistence cadence (entries)."""

    apply_workers: int = 8
    """Concurrent background appliers (§4.2: "updates to multiple keys can
    be applied concurrently through the locking of the local index table
    and bitmap structures")."""

    # -- coordinator-side CPU costs (core-microseconds) -----------------------
    #
    # Calibration constants (DESIGN.md §5): tuned so the Figure 7
    # saturation curves put Sift's knee near 10 cores where Raft-R's is
    # near 8 at the same throughput — the provisioning deltas behind
    # Table 2.  The per-op cost covers validation, hashing, cache
    # maintenance, verb posting/completion handling and the per-op share
    # of lease upkeep, which is where the paper's Sift spends the extra
    # cycles its stateless design costs it (§6.3.2).

    op_cpu_us: float = 8.0
    """Request handling per put/get (see calibration note above)."""

    cache_cpu_us: float = 1.2
    """Cache lookup/insert."""

    apply_cpu_us: float = 6.0
    """Background work per applied put (chain bookkeeping)."""

    # -- derived ---------------------------------------------------------------

    @property
    def index_buckets(self) -> int:
        """Bucket count honouring the maximum load factor (power of two)."""
        needed = int(self.max_keys / self.index_load_factor)
        buckets = 1
        while buckets < needed:
            buckets *= 2
        return buckets

    @property
    def cache_entries(self) -> int:
        """Maximum cached key-value pairs."""
        return int(self.max_keys * self.cache_fraction)

    @property
    def block_bytes(self) -> int:
        """Data block size: header + key + value."""
        from repro.kv.layout import BLOCK_HEADER_BYTES

        return BLOCK_HEADER_BYTES + self.key_bytes + self.value_bytes

    def sift_config(
        self,
        fm: int = 1,
        fc: int = 1,
        erasure_coding: bool = False,
        **overrides,
    ) -> SiftConfig:
        """Build the :class:`SiftConfig` that can host this KV store.

        Sizes the replicated memory, the direct (unencoded) window that
        holds the KV WAL, and aligns the EC block size with the KV data
        block size so every put encodes exactly one block.
        """
        from repro.kv.layout import KvLayout

        layout = KvLayout(self)
        defaults = dict(
            fm=fm,
            fc=fc,
            erasure_coding=erasure_coding,
            data_bytes=layout.data_bytes,
            direct_bytes=layout.direct_bytes,
            block_bytes=self.block_bytes,
            wal_payload_bytes=self.block_bytes + 64,
        )
        defaults.update(overrides)
        return SiftConfig(**defaults)
