"""Coordinator-side value cache.

An LRU over key -> (value, block address) sized to a fraction of the key
space (50% in the paper's setup).  Entries with pending (logged but not
yet applied) updates are pinned: "our cache tracks whether entries have
been applied yet and does not evict entries which have pending updates"
(§4.2) — evicting one would let a subsequent get read a stale block from
replicated memory.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

__all__ = ["ValueCache"]


class _CacheEntry:
    __slots__ = ("value", "block_addr", "pending", "tombstone")

    def __init__(self, value: bytes, block_addr: Optional[int]):
        self.value = value
        self.block_addr = block_addr
        self.pending = 0
        self.tombstone = False


class ValueCache:
    """Pin-aware LRU cache."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"negative cache capacity: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, _CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    # -- read path -----------------------------------------------------------

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Look up *key*: returns (hit, value).

        A hit with value ``None`` means the cache knows the key is
        deleted (pending tombstone) — the caller must not fall through to
        a remote read that could resurrect it.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        if entry.tombstone:
            return True, None
        return True, entry.value

    def block_addr_of(self, key: bytes) -> Optional[int]:
        """The data block address of a cached key, if known."""
        entry = self._entries.get(key)
        return entry.block_addr if entry is not None else None

    # -- write path -----------------------------------------------------------

    def put(self, key: bytes, value: bytes, pending: bool = False) -> None:
        """Insert/overwrite; optionally pin as having a pending update."""
        entry = self._entries.get(key)
        if entry is None:
            entry = _CacheEntry(value, None)
            self._entries[key] = entry
        else:
            entry.value = value
            entry.tombstone = False
            self._entries.move_to_end(key)
        if pending:
            entry.pending += 1
        self._evict()

    def mark_deleted(self, key: bytes, pending: bool = True) -> None:
        """Record a pending delete so gets do not read the stale block."""
        entry = self._entries.get(key)
        if entry is None:
            entry = _CacheEntry(b"", None)
            self._entries[key] = entry
        entry.tombstone = True
        entry.value = b""
        if pending:
            entry.pending += 1
        self._entries.move_to_end(key)
        self._evict()

    def fill(self, key: bytes, value: bytes, block_addr: Optional[int]) -> None:
        """Populate from a remote read (never pins, never overwrites newer).

        If the key already has a pending update, the remote read raced an
        in-flight put and its value is stale — keep the cached one.
        """
        entry = self._entries.get(key)
        if entry is not None:
            if entry.pending == 0 and not entry.tombstone:
                entry.value = value
            if block_addr is not None:
                # The block address is protocol truth regardless of which
                # value version the cache is holding.
                entry.block_addr = block_addr
            self._entries.move_to_end(key)
            return
        entry = _CacheEntry(value, block_addr)
        self._entries[key] = entry
        self._evict()

    def applied(self, key: bytes, block_addr: Optional[int]) -> None:
        """Unpin one pending update; record the key's block address."""
        entry = self._entries.get(key)
        if entry is None:
            return
        entry.pending = max(0, entry.pending - 1)
        if block_addr is not None:
            entry.block_addr = block_addr
        if entry.tombstone and entry.pending == 0:
            del self._entries[key]

    def aborted(self, key: bytes) -> None:
        """Unpin an update whose commit failed; once no update of *key* is
        pending, drop the entry so no get serves the uncommitted value."""
        entry = self._entries.get(key)
        if entry is None:
            return
        entry.pending = max(0, entry.pending - 1)
        if entry.pending == 0:
            del self._entries[key]

    # -- eviction ---------------------------------------------------------------

    def _evict(self) -> None:
        # Evict the first unpinned keys in LRU order.  Restart the scan
        # from the head after each delete instead of snapshotting every
        # key: with no pinned entries at the head (the common case) each
        # eviction is O(1) rather than O(len(cache)).
        entries = self._entries
        capacity = self.capacity
        while len(entries) > capacity:
            for key in entries:
                if entries[key].pending == 0:
                    del entries[key]
                    break
            else:
                break  # everything left is pinned

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
