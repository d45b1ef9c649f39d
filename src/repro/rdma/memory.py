"""Registered memory regions.

A region is a contiguous, byte-addressable buffer pinned on a host and
exported for remote access.  All verb handlers ultimately land here; the
methods are synchronous because the simulator applies each verb
atomically at its arrival instant.

Storage is **sparse**: the region is backed by fixed-size pages that
materialise on first write, so experiments can model multi-gigabyte
replicated memories (1M keys x 1 KiB in the paper's setup) without the
simulator itself allocating gigabytes.

Pages are immutable ``bytes``, written copy-on-write, and regions that
apply the same ``bytes`` payload over the same page share the page it
makes, so a group's 2F+1 replicas hold one copy of what they agree on.
A page of zeros is always ``_ZERO_PAGE``, and a write of what a
multi-page read returned (a recovery copy) stores the pages it joined,
a page the read cut once the write rebuilds it equal.
The memo behind this keeps its newest 512 entries, each pinning one
payload and at most two pages: 4 MiB of pages and 512 payloads at most.
A verb enters one entry per page it touches (a read: per page it spans)
in one pass and entries leave oldest first, so a run of verbs of k
entries each pins at most ``512 // k + 1`` payloads: nine 256 KiB reads
(64 or 65 entries each), 2.25 MiB.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.rdma.errors import RdmaProtectionError

__all__ = ["MemoryRegion"]

PAGE_BYTES = 4096
_ZERO_PAGE = bytes(PAGE_BYTES)  # every all-zero page stored, and any page never written

#: ``(id(payload), page start - payload start)`` for a whole page or a page a
#: read spans, plus ``(page offset, id(old page))`` for a partial write
#: -> ``(payload, old page or None, page)``;
#: an entry holds the objects its key's ids name, so no id is reused while it lives.
_MEMO_ENTRIES = 512
_memo: "OrderedDict[tuple, Tuple[bytes, Optional[bytes], bytes]]" = OrderedDict()


def _new_page(data: bytes, at: int, take: int, page_offset: int, old: bytes) -> bytes:
    """*old* with ``data[at : at + take]`` at *page_offset*; the memo picks only which object."""
    whole = take == PAGE_BYTES
    key = (id(data), at) if whole else (id(data), at, page_offset, id(old))
    entry = _memo.get(key)
    if entry is not None:
        return entry[2]
    if whole:  # one copy (none if data is the page)
        page, old = data[at : at + PAGE_BYTES], None
    else:
        page = b"".join((old[:page_offset], data[at : at + take], old[page_offset + take :]))
        read = _memo.get((id(data), at - page_offset))  # a page a multi-page read cut
        if read is not None and read[2] == page:
            page = read[2]
    if page == _ZERO_PAGE:
        page = _ZERO_PAGE
    _memo[key] = (data, old, page)
    if len(_memo) > _MEMO_ENTRIES:
        _memo.popitem(last=False)
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

    def read(self, offset: int, length: int) -> bytes:
        """Copy *length* bytes starting at *offset*."""
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
        for i in span:  # every page, cut ones too: a write that rebuilds one stores it
            _memo[id(data), i * PAGE_BYTES - offset] = (data, None, pages.get(i, _ZERO_PAGE))
        while len(_memo) > _MEMO_ENTRIES:
            _memo.popitem(last=False)
        return data

    def write(self, offset: int, data: bytes) -> None:
        """Overwrite the bytes at *offset* with *data*, replacing each page it
        touches (an empty write materializes its page).  Only a ``bytes``
        payload is shared through the memo; any other is copied first."""
        length = len(data)
        if offset < 0 or offset + length > self.size:
            self._check(offset, length)  # raises
        if type(data) is not bytes:
            data = bytes(data)
        pages, position = self._pages, 0
        page_index, page_offset = divmod(offset, PAGE_BYTES)
        while True:
            take = min(length - position, PAGE_BYTES - page_offset)
            old = pages.get(page_index, _ZERO_PAGE)
            pages[page_index] = _new_page(data, position, take, page_offset, old)
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
