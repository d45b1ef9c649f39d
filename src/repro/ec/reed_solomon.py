"""Systematic Cauchy Reed-Solomon code.

``CauchyRSCode(k, m)`` turns a block into ``k`` data chunks plus ``m``
parity chunks; any ``k`` of the ``k + m`` survive-and-rebuild.  Sift EC
uses ``k = Fm + 1`` and ``m = Fm`` (§5.1): a write still commits on a
quorum of ``Fm + 1`` memory nodes, tolerates ``Fm`` failures, and stores
``(2Fm + 1) × B/(Fm + 1)`` bytes instead of ``(2Fm + 1) × B``.

The code is *systematic*: chunk ``i < k`` is a verbatim slice of the
block, which is why the coordinator can "prioritize reading from memory
nodes which store non-parity data to avoid the decoding cost" (§5.1).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.ec.matrix import cauchy_matrix, gf_mat_inv, gf_matmul, identity

__all__ = ["CauchyRSCode", "DecodeError"]


class DecodeError(Exception):
    """Not enough chunks (or inconsistent sizes) to rebuild the block."""


class CauchyRSCode:
    """Encoder/decoder for a fixed ``(data_shards, parity_shards)`` geometry."""

    def __init__(self, data_shards: int, parity_shards: int):
        if data_shards < 1:
            raise ValueError(f"need at least one data shard, got {data_shards}")
        if parity_shards < 0:
            raise ValueError(f"negative parity shards: {parity_shards}")
        if data_shards + parity_shards > 256:
            raise ValueError("GF(2^8) supports at most 256 total shards")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = data_shards + parity_shards
        # Full encoding matrix: identity on top (systematic), Cauchy below.
        parity_rows = (
            cauchy_matrix(parity_shards, data_shards)
            if parity_shards
            else np.zeros((0, data_shards), dtype=np.uint8)
        )
        self.matrix = np.concatenate([identity(data_shards), parity_rows], axis=0)

    # -- geometry ------------------------------------------------------------

    def chunk_size(self, block_len: int) -> int:
        """Bytes per chunk for a block of *block_len* bytes."""
        return (block_len + self.data_shards - 1) // self.data_shards

    # -- encoding ------------------------------------------------------------

    def encode(self, run: bytes, blocks: int = 1) -> List[bytes]:
        """All ``k + m`` shards of *run*, *blocks* equal blocks end to end:
        shard *i* is each block's *i*-th chunk, in block order (the matmul
        is column-independent, so this is exactly per-block encoding)."""
        block_len = len(run) // blocks  # the reshape rejects unequal blocks
        size = self.chunk_size(block_len)
        padded = np.zeros((blocks, size * self.data_shards), dtype=np.uint8)
        padded[:, :block_len] = np.frombuffer(run, dtype=np.uint8).reshape(blocks, block_len)
        data = padded.reshape(blocks, self.data_shards, size).transpose(1, 0, 2)
        data = data.reshape(self.data_shards, blocks * size)
        if self.parity_shards:
            parity = gf_matmul(self.matrix[self.data_shards :], data)
            shards = np.concatenate([data, parity], axis=0)
        else:
            shards = data
        return [shards[i].tobytes() for i in range(self.total_shards)]

    # -- decoding ------------------------------------------------------------

    def decode(self, chunks: Dict[int, bytes], block_len: int) -> bytes:
        """Rebuild the original block from any ``k`` chunks.

        *chunks* maps shard index to chunk bytes.  Raises
        :class:`DecodeError` when fewer than ``k`` chunks are supplied.
        """
        data = self._solve_data(chunks, block_len)
        return data.reshape(-1).tobytes()[:block_len]

    def reconstruct(self, chunks: Dict[int, bytes], block_len: int) -> List[bytes]:
        """Rebuild *all* shards (used for memory-node recovery, §5.1)."""
        data = self._solve_data(chunks, block_len)
        if self.parity_shards:
            parity = gf_matmul(self.matrix[self.data_shards :], data)
            shards = np.concatenate([data, parity], axis=0)
        else:
            shards = data
        return [shards[i].tobytes() for i in range(self.total_shards)]

    def _solve_data(self, chunks: Dict[int, bytes], block_len: int) -> np.ndarray:
        if block_len < 0:
            raise ValueError(f"negative block length: {block_len}")
        size = self.chunk_size(block_len)
        available = sorted(index for index in chunks if 0 <= index < self.total_shards)
        if len(available) < self.data_shards:
            raise DecodeError(
                f"need {self.data_shards} chunks, have {len(available)}"
            )
        chosen = available[: self.data_shards]
        # Fast path: all data shards present, nothing to invert.
        if chosen == list(range(self.data_shards)):
            rows = []
            for index in chosen:
                chunk = chunks[index]
                if len(chunk) != size:
                    raise DecodeError(
                        f"chunk {index} has {len(chunk)}B, expected {size}B"
                    )
                rows.append(np.frombuffer(chunk, dtype=np.uint8))
            return np.stack(rows)
        sub_matrix = self.matrix[chosen]
        inverse = gf_mat_inv(sub_matrix)
        rows = []
        for index in chosen:
            chunk = chunks[index]
            if len(chunk) != size:
                raise DecodeError(f"chunk {index} has {len(chunk)}B, expected {size}B")
            rows.append(np.frombuffer(chunk, dtype=np.uint8))
        return gf_matmul(inverse, np.stack(rows))

    def __repr__(self) -> str:
        return f"CauchyRSCode(k={self.data_shards}, m={self.parity_shards})"
