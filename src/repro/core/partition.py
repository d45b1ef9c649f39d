"""Deterministic partition planning for parallel memory-node recovery.

RAMCloud showed that the recovery time of a failed storage node stays
flat as data grows only if the node's image is *partitioned* and the
partitions are rebuilt in parallel from many sources.  Sift's §3.4.2
copy is a single coordinator-driven stream; the planner here splits the
same logical address space into ``num_partitions`` contiguous region
ranges so the recovery manager can stream each range independently.

The plan is pure arithmetic over the deployment geometry — no
simulation state, no RNG — so the same configuration always yields the
same plan, which is what makes partitioned recovery replayable and the
BENCH artifacts byte-identical across ``--jobs`` fan-out.

Invariants (enforced here, property-tested in
``tests/test_partition_planner.py``):

* every byte of ``[0, data_bytes)`` belongs to exactly one fragment and
  every fragment to exactly one partition — no gaps, no overlap;
* fragments never straddle the direct/encoded zone boundary (the copy
  path treats the two zones differently);
* partition boundaries land on block-lock boundaries whenever the
  fragment grid allows it, so two partitions' readers do not contend on
  a block split between them;
* partitions are contiguous and address-ordered; when there are more
  partitions than fragments the tail partitions are empty rather than
  fabricated.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

__all__ = ["RecoveryPartition", "plan_fragments", "plan_partitions"]


class RecoveryPartition(NamedTuple):
    """One contiguous slice of the node image, copied by one reader crew."""

    index: int
    start: int
    """First logical byte of the partition's range."""

    end: int
    """One past the last logical byte (``start == end`` for an empty tail)."""

    fragments: Tuple[Tuple[int, int], ...]
    """``(addr, length)`` copy units, in ascending address order."""

    @property
    def total_bytes(self) -> int:
        """Bytes this partition is responsible for."""
        return self.end - self.start


def plan_fragments(
    data_bytes: int, chunk_bytes: int, direct_bytes: int = 0
) -> List[Tuple[int, int]]:
    """The ``(addr, length)`` copy units covering ``[0, data_bytes)``.

    Walks the address space in ``chunk_bytes`` steps, clamping the
    fragment that would straddle the direct/encoded boundary.
    """
    if chunk_bytes <= 0:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    if data_bytes < 0:
        raise ValueError(f"data_bytes must be non-negative, got {data_bytes}")
    if not 0 <= direct_bytes <= data_bytes:
        raise ValueError(
            f"direct_bytes {direct_bytes} outside [0, {data_bytes}]"
        )
    fragments: List[Tuple[int, int]] = []
    addr = 0
    while addr < data_bytes:
        length = min(chunk_bytes, data_bytes - addr)
        if addr < direct_bytes:
            # Never straddle the direct/encoded zone boundary.
            length = min(length, direct_bytes - addr)
        fragments.append((addr, length))
        addr += length
    return fragments


def plan_partitions(
    data_bytes: int,
    chunk_bytes: int,
    num_partitions: int,
    direct_bytes: int = 0,
    block_bytes: int = 1,
) -> List[RecoveryPartition]:
    """Split the node image into ``num_partitions`` contiguous ranges.

    Fragments are distributed as evenly as the grid allows (each split
    takes the ceiling share of the *remaining* fragments, so earlier
    partitions are never smaller than later ones by more than one
    fragment), then each boundary is pushed forward until it is
    block-aligned — a partition never ends mid-block unless the image
    itself does.
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    if block_bytes < 1:
        raise ValueError(f"block_bytes must be >= 1, got {block_bytes}")
    fragments = plan_fragments(data_bytes, chunk_bytes, direct_bytes)
    partitions: List[RecoveryPartition] = []
    position = 0
    cursor = 0  # address reached so far; empty tails collapse onto it
    for index in range(num_partitions):
        remaining = num_partitions - index
        quota = (len(fragments) - position + remaining - 1) // remaining
        take = fragments[position : position + quota]
        position += len(take)
        # Snap the boundary to the block-lock grid by absorbing whole
        # fragments; the last partition always absorbs the tail.
        while (
            position < len(fragments)
            and take
            and (take[-1][0] + take[-1][1]) % block_bytes
        ):
            take.append(fragments[position])
            position += 1
        if take:
            start = take[0][0]
            cursor = take[-1][0] + take[-1][1]
        else:
            start = cursor
        partitions.append(RecoveryPartition(index, start, cursor, tuple(take)))
    if position != len(fragments):  # pragma: no cover - planner invariant
        raise AssertionError("partition planner dropped fragments")
    return partitions
