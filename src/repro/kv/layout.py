"""On-memory layout and codecs for the KV store.

Logical address space (§4.1: "all of these structures exist within the
replicated memory at predefined locations")::

    0            reserved (membership word, repro.core.membership)
    64           KV metadata: applied-sequence watermark (8 B)
    128          circular KV write-ahead log          --.
    ...                                                  | direct window
    direct_bytes index table (bucket-head pointers)    --'
    ...          block allocation bitmap
    ...          data blocks (one per key)

Everything from the index table down lives in the *encoded* zone when
erasure coding is on, aligned so that one data block is exactly one EC
block.  The KV WAL stays in the direct window — the paper stores logs
non-encoded (§5.1) and commits puts with a single RDMA round trip
(§4.2).

Data block wire format (``block_bytes`` = 16 + key + value)::

    next_ptr (8) | key_len (2) | val_len (2) | pad (4) | key | value

KV WAL slot format (``wal_slot_bytes`` = 24 + key + value)::

    seq (8) | term (4) | op (1) | pad (1) | key_len (2) | val_len (2)
    | pad (2) | crc (4) | key | value

Like the replicated-memory WAL, KV records carry the coordinator term so
recovery can discard a deposed coordinator's divergent uncommitted
records at the same sequence numbers.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple, Optional

from repro.core.membership import RESERVED_BYTES

__all__ = [
    "BLOCK_HEADER_BYTES",
    "BlockImage",
    "KvLayout",
    "OP_DELETE",
    "OP_PUT",
    "WalRecord",
]

BLOCK_HEADER_BYTES = 16
_BLOCK_HEADER = struct.Struct("<QHH4x")

KV_WAL_HEADER_BYTES = 24
_WAL_HEADER = struct.Struct("<QIBxHH2xI")

OP_PUT = 1
OP_DELETE = 2

WATERMARK_OFFSET = RESERVED_BYTES
KV_WAL_OFFSET = RESERVED_BYTES + 64


class BlockImage(NamedTuple):
    """Decoded data block."""

    next_ptr: int
    key: bytes
    value: bytes


class WalRecord(NamedTuple):
    """Decoded KV WAL entry."""

    seq: int
    op: int
    key: bytes
    value: bytes
    term: int = 0


class KvLayout:
    """Address computations for one KV store instance."""

    def __init__(self, config):
        self.config = config
        block = config.block_bytes
        self.block_bytes = block
        self.wal_slot_bytes = KV_WAL_HEADER_BYTES + config.key_bytes + config.value_bytes
        self.wal_offset = KV_WAL_OFFSET
        wal_end = self.wal_offset + config.wal_entries * self.wal_slot_bytes
        self.direct_bytes = _round_up(wal_end, block)
        self.index_offset = self.direct_bytes
        buckets = config.index_buckets
        self.bucket_mask = buckets - 1
        self.index_bytes = _round_up(buckets * 8, block)
        self.bitmap_offset = self.index_offset + self.index_bytes
        self.bitmap_bytes = _round_up((config.max_keys + 7) // 8, block)
        self.blocks_offset = self.bitmap_offset + self.bitmap_bytes
        self.data_bytes = self.blocks_offset + config.max_keys * block

    # -- addresses -----------------------------------------------------------

    def wal_slot_addr(self, seq: int) -> int:
        """Logical address of the WAL slot for sequence number *seq*."""
        if seq < 1:
            raise ValueError(f"KV sequence numbers start at 1, got {seq}")
        return self.wal_offset + ((seq - 1) % self.config.wal_entries) * self.wal_slot_bytes

    def block_addr(self, block_number: int) -> int:
        """Logical address of data block *block_number*."""
        if not 0 <= block_number < self.config.max_keys:
            raise ValueError(f"block number {block_number} out of range")
        return self.blocks_offset + block_number * self.block_bytes

    def block_number(self, addr: int) -> int:
        """Inverse of :meth:`block_addr`."""
        offset = addr - self.blocks_offset
        if offset < 0 or offset % self.block_bytes:
            raise ValueError(f"{addr} is not a data block address")
        return offset // self.block_bytes

    def bucket_addr(self, bucket: int) -> int:
        """Logical address of an index-table bucket pointer."""
        return self.index_offset + bucket * 8

    def bucket_of(self, key: bytes) -> int:
        """Hash a key to its bucket (stable across processes)."""
        return zlib.crc32(key) & self.bucket_mask

    # -- block codec -----------------------------------------------------------

    def encode_block(self, image: BlockImage) -> bytes:
        """Serialise a data block (padded to the full block size)."""
        config = self.config
        if len(image.key) > config.key_bytes:
            raise ValueError(f"key of {len(image.key)}B exceeds {config.key_bytes}B")
        if len(image.value) > config.value_bytes:
            raise ValueError(
                f"value of {len(image.value)}B exceeds {config.value_bytes}B"
            )
        header = _BLOCK_HEADER.pack(image.next_ptr, len(image.key), len(image.value))
        key = image.key.ljust(config.key_bytes, b"\0")
        return header + key + image.value.ljust(config.value_bytes, b"\0")

    def decode_block(self, raw: bytes) -> Optional[BlockImage]:
        """Parse a data block; None when lengths are implausible."""
        if len(raw) < self.block_bytes:
            return None
        next_ptr, key_len, val_len = _BLOCK_HEADER.unpack_from(raw)
        config = self.config
        if key_len > config.key_bytes or val_len > config.value_bytes:
            return None
        key = bytes(raw[BLOCK_HEADER_BYTES : BLOCK_HEADER_BYTES + key_len])
        value_start = BLOCK_HEADER_BYTES + config.key_bytes
        value = bytes(raw[value_start : value_start + val_len])
        return BlockImage(next_ptr, key, value)

    # -- WAL codec -----------------------------------------------------------

    def encode_wal_record(self, record: WalRecord) -> bytes:
        """Serialise a KV WAL entry (header + key + value, unpadded)."""
        config = self.config
        if len(record.key) > config.key_bytes:
            raise ValueError(f"key of {len(record.key)}B exceeds {config.key_bytes}B")
        if len(record.value) > config.value_bytes:
            raise ValueError(
                f"value of {len(record.value)}B exceeds {config.value_bytes}B"
            )
        crc = zlib.crc32(record.key + record.value) ^ (record.seq & 0xFFFFFFFF)
        header = _WAL_HEADER.pack(
            record.seq,
            record.term & 0xFFFFFFFF,
            record.op,
            len(record.key),
            len(record.value),
            crc,
        )
        return header + record.key + record.value

    def decode_wal_record(self, raw: bytes) -> Optional[WalRecord]:
        """Parse a WAL slot; None for empty, torn, or corrupt entries."""
        if len(raw) < KV_WAL_HEADER_BYTES:
            return None
        seq, term, op, key_len, val_len, crc = _WAL_HEADER.unpack_from(raw)
        if seq == 0 or op not in (OP_PUT, OP_DELETE):
            return None
        config = self.config
        if key_len > config.key_bytes or val_len > config.value_bytes:
            return None
        if KV_WAL_HEADER_BYTES + key_len + val_len > len(raw):
            return None
        key = bytes(raw[KV_WAL_HEADER_BYTES : KV_WAL_HEADER_BYTES + key_len])
        value = bytes(
            raw[KV_WAL_HEADER_BYTES + key_len : KV_WAL_HEADER_BYTES + key_len + val_len]
        )
        if zlib.crc32(key + value) ^ (seq & 0xFFFFFFFF) != crc:
            return None
        return WalRecord(seq, op, key, value, term)


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple
