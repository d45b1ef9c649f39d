"""Registered memory regions.

A region is a contiguous, byte-addressable buffer pinned on a host and
exported for remote access.  All verb handlers ultimately land here; the
methods are synchronous because the simulator applies each verb
atomically at its arrival instant.

Storage is **sparse**: the region is backed by fixed-size pages that
materialise on first write, so experiments can model multi-gigabyte
replicated memories (1M keys x 1 KiB in the paper's setup) without the
simulator itself allocating gigabytes.

Pages are immutable ``bytes``, written copy-on-write.  An operation
that writes one ``bytes`` payload to several regions (a replicated
fan-out, the applies of one logged write, a preload run, a recovery
copy) hands each of its verbs the same *share scope*, a dict it owns,
and every region then stores the same page objects, so a group's 2F+1
replicas hold one copy of what they agree on.  A read given a scope
records every page it spans, cut ones included, so a write of what it
returned stores the pages it joined, a page the read cut once the write
rebuilds it equal.  A scope lives as long as its verbs: once they
complete, nothing but the regions holds a page or a payload.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.rdma.errors import RdmaProtectionError

__all__ = ["MemoryRegion"]

PAGE_BYTES = 4096
_ZERO_PAGE = bytes(PAGE_BYTES)  # every all-zero page stored, and any page never written


def _new_page(data: bytes, at: int, take: int, page_offset: int, old: bytes, share: dict) -> bytes:
    """*old* with ``data[at : at + take]`` at *page_offset*; the scope *share* picks only which
    object.  ``(id(payload), page start - payload start)``, plus ``(page offset, id(old page))``
    for a partial write, maps to ``(payload, old page or None, page)``, which pins those ids."""
    whole = take == PAGE_BYTES
    key = (id(data), at) if whole else (id(data), at, page_offset, id(old))
    entry = share.get(key)
    if entry is not None:
        return entry[2]
    if whole:  # one copy (none if data is the page)
        page, old = data[at : at + PAGE_BYTES], None
    else:
        page = b"".join((old[:page_offset], data[at : at + take], old[page_offset + take :]))
        read = share.get((id(data), at - page_offset))  # a page a multi-page read cut
        if read is not None and read[2] == page:
            page = read[2]
    if page == _ZERO_PAGE:
        page = _ZERO_PAGE
    share[key] = (data, old, page)
    return page


class MemoryRegion:
    """A named, bounds-checked, sparsely backed byte buffer with atomics."""

    WORD = 8  # atomics operate on 64-bit words

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.name = name
        self.size = size
        self._pages: Dict[int, bytes] = {}

    # -- plain access --------------------------------------------------------

    def read(self, offset: int, length: int, share: Optional[dict] = None) -> bytes:
        """Copy *length* bytes at *offset*; a multi-page read records its pages in *share*."""
        if offset < 0 or length < 0 or offset + length > self.size:
            self._check(offset, length)  # raises
        page_index, page_offset = divmod(offset, PAGE_BYTES)
        if page_offset + length <= PAGE_BYTES:  # single page: one slice, none if whole
            page = self._pages.get(page_index)
            if page is None:
                return bytes(length)
            return page[page_offset : page_offset + length]
        span = range(page_index, (offset + length - 1) // PAGE_BYTES + 1)
        pages = self._pages
        if pages.keys().isdisjoint(span):  # never written: no join to build
            return bytes(length)
        joined = b"".join([pages.get(i, _ZERO_PAGE) for i in span])
        data = joined[page_offset : page_offset + length]
        if share is not None:  # every page, cut ones too: a write that rebuilds one stores it
            for i in span:
                share[id(data), i * PAGE_BYTES - offset] = (data, None, pages.get(i, _ZERO_PAGE))
        return data

    def write(self, offset: int, data: bytes, share: Optional[dict] = None) -> None:
        """Overwrite the bytes at *offset* with *data*, replacing each page it
        touches (an empty write materializes its page).  Only a ``bytes``
        payload shares pages through its scope *share*; any other is copied
        first, a new payload."""
        length = len(data)
        if offset < 0 or offset + length > self.size:
            self._check(offset, length)  # raises
        data, share = bytes(data), {} if share is None else share
        pages, position = self._pages, 0
        page_index, page_offset = divmod(offset, PAGE_BYTES)
        while True:
            take = min(length - position, PAGE_BYTES - page_offset)
            old = pages.get(page_index, _ZERO_PAGE)
            pages[page_index] = _new_page(data, position, take, page_offset, old, share)
            position += take
            if position >= length:
                return
            page_index, page_offset = page_index + 1, 0

    # -- aliasing --------------------------------------------------------------

    def alias(self, name: str) -> "MemoryRegion":
        """A second named view over the *same* backing pages: one buffer
        exported under two protection domains (the replicated region to the
        serving coordinator, a ``repmem-recovery`` alias to the fragment
        pushers of partitioned recovery)."""
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
