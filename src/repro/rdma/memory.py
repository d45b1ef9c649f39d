"""Registered memory regions.

A region is a contiguous, byte-addressable buffer pinned on a host and
exported for remote access.  All verb handlers ultimately land here; the
methods are synchronous because the simulator applies each verb
atomically at its arrival instant.

Storage is **sparse**: the region is backed by fixed-size pages that
materialise on first write, so experiments can model multi-gigabyte
replicated memories (1M keys x 1 KiB in the paper's setup) without the
simulator itself allocating gigabytes.
"""

from __future__ import annotations

from typing import Dict

from repro.rdma.errors import RdmaProtectionError

__all__ = ["MemoryRegion"]

PAGE_BYTES = 4096
_ZERO_PAGE = bytes(PAGE_BYTES)  # stands in for a page never written


class MemoryRegion:
    """A named, bounds-checked, sparsely backed byte buffer with atomics."""

    WORD = 8  # atomics operate on 64-bit words

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.name = name
        self.size = size
        self._pages: Dict[int, bytearray] = {}

    # -- plain access --------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """Copy *length* bytes starting at *offset*."""
        if offset < 0 or length < 0 or offset + length > self.size:
            self._check(offset, length)  # raises
        page_index, page_offset = divmod(offset, PAGE_BYTES)
        if page_offset + length <= PAGE_BYTES:  # single-page fast path
            page = self._pages.get(page_index)
            if page is None:
                return bytes(length)
            return bytes(page[page_offset : page_offset + length])
        span = range(page_index, (offset + length - 1) // PAGE_BYTES + 1)
        pages = self._pages
        if pages.keys().isdisjoint(span):  # never written: no join to build
            return bytes(length)
        joined = b"".join([pages.get(i, _ZERO_PAGE) for i in span])
        return joined[page_offset : page_offset + length]

    def write(self, offset: int, data: bytes) -> None:
        """Overwrite the bytes at *offset* with *data*."""
        length = len(data)
        if offset < 0 or offset + length > self.size:
            self._check(offset, length)  # raises
        page_index, page_offset = divmod(offset, PAGE_BYTES)
        if page_offset + length <= PAGE_BYTES:  # single-page fast path
            page = self._pages.get(page_index)
            if page is None:
                page = self._pages[page_index] = bytearray(PAGE_BYTES)
            page[page_offset : page_offset + length] = data
            return
        pages, view, position = self._pages, memoryview(data), 0
        while position < length:
            page_index, page_offset = divmod(offset + position, PAGE_BYTES)
            take = min(length - position, PAGE_BYTES - page_offset)
            if take == PAGE_BYTES:  # covered whole: one copy, no zero-fill
                pages[page_index] = bytearray(view[position : position + PAGE_BYTES])
            else:
                page = pages.get(page_index)
                if page is None:
                    page = pages[page_index] = bytearray(PAGE_BYTES)
                page[page_offset : page_offset + take] = view[position : position + take]
            position += take

    def fill(self, value: int = 0) -> None:
        """Reset the whole region (models a fresh DRAM allocation)."""
        self._pages.clear()
        if value:
            raise NotImplementedError("only zero-fill is supported")

    # -- aliasing --------------------------------------------------------------

    def alias(self, name: str) -> "MemoryRegion":
        """A second named view over the *same* backing pages.

        Used to export one buffer under two protection domains — e.g.
        the replicated region is exported exclusively to the serving
        coordinator while a ``repmem-recovery`` alias admits the
        fragment pushers of partitioned recovery.  Reads and writes
        through either name land in the same bytes.
        """
        view = MemoryRegion.__new__(MemoryRegion)
        view.name = name
        view.size = self.size
        view._pages = self._pages
        return view

    # -- atomics ---------------------------------------------------------------

    def read_word(self, offset: int) -> int:
        """Atomically read the 64-bit word at *offset* (must be aligned)."""
        self._check_word(offset)
        return int.from_bytes(self.read(offset, self.WORD), "little")

    def write_word(self, offset: int, value: int) -> None:
        """Atomically write the 64-bit word at *offset*."""
        self._check_word(offset)
        self.write(offset, (value & (2**64 - 1)).to_bytes(self.WORD, "little"))

    def compare_and_swap(self, offset: int, expected: int, new: int) -> int:
        """RDMA CAS: swap iff the current word equals *expected*.

        Returns the value observed *before* the operation, as the verb
        does; the caller infers success by comparing it to *expected*.
        """
        current = self.read_word(offset)
        if current == expected:
            self.write_word(offset, new)
        return current

    # -- bounds ---------------------------------------------------------------

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise RdmaProtectionError(
                f"access [{offset}, {offset + length}) outside region "
                f"{self.name!r} of size {self.size}"
            )

    def _check_word(self, offset: int) -> None:
        self._check(offset, self.WORD)
        if offset % self.WORD != 0:
            raise RdmaProtectionError(
                f"misaligned atomic at offset {offset} in region {self.name!r}"
            )

    def __repr__(self) -> str:
        return f"<MemoryRegion {self.name} {self.size}B>"
