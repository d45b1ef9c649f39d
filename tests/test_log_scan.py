"""Equivalence of the streaming log scan and the joined sparse read.

``scan_log`` hands ``decode`` only the slots whose leading 8-byte index
word is non-zero, and ``MemoryRegion.read`` joins whole pages instead of
copying them one at a time.  Both must return exactly what the plain
loops they replaced returned; those loops are kept here as the
references.  The filter is sound only because both log codecs reject a
zero leading word, which a property pins.

``MemoryRegion.write`` copies a page it covers whole in one step, and a
read of a never-written range returns zeros without joining zero pages.
The zero-filling write and the joining read they replaced are kept here
too: the region must hold the same pages with the same bytes, and no
read may materialize a page.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import recovery
from repro.kv import KvConfig
from repro.kv.layout import OP_PUT, KvLayout, WalRecord
from repro.rdma.memory import PAGE_BYTES, MemoryRegion
from repro.storage.memory_node import REPMEM_REGION
from repro.storage.wal import WalCodec, WalEntry, WalLayout

CODECS = ("wal", "kv")
SLOT_KINDS = ("empty", "written", "written_over_garbage", "torn", "zero_word_garbage", "garbage")


def make_codec(name, extra):
    """``(slot_bytes, decode, encode(index, blob))`` for one slot geometry."""
    if name == "wal":
        codec = WalCodec(WalLayout(entry_count=1, payload_bytes=8 + extra))
        payload = codec.layout.payload_bytes

        def encode(index, blob):
            return codec.encode(WalEntry(index, index >> 8, blob[:payload], index % 7))

        return codec.layout.slot_bytes, codec.decode, encode
    config = KvConfig(max_keys=16, key_bytes=4 + extra % 5, value_bytes=4 + extra, wal_entries=1)
    layout = KvLayout(config)

    def encode(index, blob):
        key, value = blob[: config.key_bytes], blob[config.key_bytes :][: config.value_bytes]
        return layout.encode_wal_record(WalRecord(index, OP_PUT, key, value, index % 7))

    return layout.wal_slot_bytes, layout.decode_wal_record, encode


def reference_scan(qp, offset, count, slot_bytes, decode):
    """The decode-every-slot scan ``scan_log`` replaced."""
    raw = bytearray()
    total = count * slot_bytes
    while len(raw) < total:
        take = min(recovery._WAL_READ_CHUNK, total - len(raw))
        raw += yield qp.read(REPMEM_REGION, offset + len(raw), take)
    return [
        entry
        for begin in range(0, total, slot_bytes)
        if (entry := decode(bytes(raw[begin : begin + slot_bytes]))) is not None
    ]


class DirectQp:
    """Serves each READ straight from *region* and records the verbs posted."""

    def __init__(self, region):
        self.region = region
        self.reads = []

    def read(self, region_name, offset, length):
        self.reads.append((region_name, offset, length))
        return self.region.read(offset, length)


def drive(scan, region, *args):
    """Run a scan process to completion; returns ``(entries, verbs posted)``."""
    qp = DirectQp(region)
    process = scan(qp, *args)
    value = None
    try:
        while True:
            value = process.send(value)
    except StopIteration as stop:
        return stop.value, qp.reads


def slot_image(kind, rng, slot_bytes, encode):
    """The bytes one slot of *kind* holds (``None``: never written)."""
    if kind == "empty":
        return None
    if kind in ("garbage", "zero_word_garbage"):
        image = bytearray(rng.randbytes(slot_bytes))
        if kind == "zero_word_garbage":
            image[:8] = bytes(8)
        return bytes(image)
    blob = rng.randbytes(rng.randrange(slot_bytes + 1))
    image = bytearray(encode(rng.randrange(1, 2**64), blob))
    if kind == "torn":
        image[rng.randrange(8, len(image))] ^= 1 << rng.randrange(8)
    if kind == "written_over_garbage":
        image += rng.randbytes(slot_bytes - len(image))  # a stale tail
    return bytes(image)


@settings(max_examples=200)
@given(
    name=st.sampled_from(CODECS),
    extra=st.integers(0, 60),
    kinds=st.lists(st.sampled_from(SLOT_KINDS), min_size=1, max_size=40),
    offset=st.integers(0, 2 * PAGE_BYTES),
    small_chunk=st.integers(1, 4096),
    stream_chunk=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_scan_returns_what_decoding_every_slot_returns(
    name, extra, kinds, offset, small_chunk, stream_chunk, seed
):
    slot_bytes, decode, encode = make_codec(name, extra)
    count = len(kinds)
    rng = random.Random(seed)
    region = MemoryRegion(REPMEM_REGION, offset + count * slot_bytes + rng.randrange(64))
    for slot, kind in enumerate(kinds):
        image = slot_image(kind, rng, slot_bytes, encode)
        if image is not None:
            region.write(offset + slot * slot_bytes, image)
    # A small chunk makes many slots straddle chunk boundaries (and some
    # chunks hold no whole slot); the real chunk size covers the default.
    chunk = recovery._WAL_READ_CHUNK if stream_chunk else small_chunk
    with mock.patch.object(recovery, "_WAL_READ_CHUNK", chunk):
        expected, expected_reads = drive(reference_scan, region, offset, count, slot_bytes, decode)
        entries, reads = drive(recovery.scan_log, region, offset, count, slot_bytes, decode)
    assert entries == expected
    assert reads == expected_reads  # the same verbs, offsets and sizes, in order


@given(
    name=st.sampled_from(CODECS),
    extra=st.integers(0, 60),
    seed=st.integers(0, 2**32),
)
def test_both_decoders_reject_a_zero_leading_word(name, extra, seed):
    """The proof obligation the scan's filter rests on."""
    slot_bytes, decode, encode = make_codec(name, extra)
    rng = random.Random(seed)
    blob = rng.randbytes(slot_bytes)
    assert decode(encode(rng.randrange(1, 2**64), blob)) is not None
    # Index 0 is the only defect here: the CRC is consistent with it.
    assert decode(encode(0, blob)) is None
    assert decode(bytes(8) + rng.randbytes(slot_bytes - 8)) is None
    assert decode(bytes(slot_bytes)) is None


def reference_read(region, offset, length):
    """The page-by-page loop a multi-page ``MemoryRegion.read`` replaced."""
    out = bytearray(length)
    position = 0
    while position < length:
        page_index, page_offset = divmod(offset + position, PAGE_BYTES)
        take = min(length - position, PAGE_BYTES - page_offset)
        page = region._pages.get(page_index)
        if page is not None:
            out[position : position + take] = page[page_offset : page_offset + take]
        position += take
    return bytes(out)


@settings(max_examples=150)
@given(
    pages=st.integers(1, 12),
    short=st.integers(0, PAGE_BYTES - 1),
    written=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 2 * PAGE_BYTES)), max_size=6),
    ranges=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8),
    seed=st.integers(0, 2**32),
)
def test_sparse_read_matches_the_page_loop(pages, short, written, ranges, seed):
    size = pages * PAGE_BYTES - short
    rng = random.Random(seed)
    region = MemoryRegion("r", size)
    view = region.alias("view")
    for page, length in written:  # materialise a random sparse subset of pages
        start = min(page * PAGE_BYTES + rng.randrange(PAGE_BYTES), size - 1)
        writer = rng.choice((region, view))
        writer.write(start, rng.randbytes(min(length, size - start)))
    for at, span in ranges:  # starts and ends mid-page, across present and absent pages
        offset = int(at * size)
        length = int(span * (size - offset))
        expected = reference_read(region, offset, length)
        for reader in (region, view):
            got = reader.read(offset, length)
            assert type(got) is bytes
            assert got == expected


def reference_write(region, offset, data):
    """The write that zero-filled every page before assigning into it
    (an empty write inside one page materializes that page)."""
    if not data:
        region._pages.setdefault(offset // PAGE_BYTES, bytearray(PAGE_BYTES))
    position = 0
    while position < len(data):
        page_index, page_offset = divmod(offset + position, PAGE_BYTES)
        take = min(len(data) - position, PAGE_BYTES - page_offset)
        page = region._pages.get(page_index)
        if page is None:
            page = region._pages[page_index] = bytearray(PAGE_BYTES)
        page[page_offset : page_offset + take] = data[position : position + take]
        position += take


def reference_join_read(region, offset, length):
    """The read that joined a zero page for every page never written."""
    first, page_offset = divmod(offset, PAGE_BYTES)
    last = (offset + length - 1) // PAGE_BYTES
    pages = [region._pages.get(i, bytes(PAGE_BYTES)) for i in range(first, last + 1)]
    return b"".join(pages)[page_offset : page_offset + length]


def materialized(region):
    """``{page: bytes}``, checking every page is a whole-page ``bytearray``."""
    assert all(type(page) is bytearray and len(page) == PAGE_BYTES for page in region._pages.values())
    return {index: bytes(page) for index, page in region._pages.items()}


def span(at, length, aligned, size):
    """An ``(offset, length)`` inside *size*; *aligned* snaps it to whole pages."""
    offset = int(at * size)
    if aligned:
        offset -= offset % PAGE_BYTES
        length = -(-length // PAGE_BYTES) * PAGE_BYTES
    return offset, min(length, size - offset)


@settings(max_examples=150)
@given(
    pages=st.integers(1, 12),
    short=st.integers(0, PAGE_BYTES - 1),
    writes=st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 4 * PAGE_BYTES), st.booleans()), max_size=8
    ),
    reads=st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 6 * PAGE_BYTES), st.booleans()),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(0, 2**32),
)
def test_region_matches_the_zero_fill_write_and_the_join_read(pages, short, writes, reads, seed):
    size = pages * PAGE_BYTES - short
    rng = random.Random(seed)
    region = MemoryRegion("r", size)
    view = region.alias("view")
    reference = MemoryRegion("reference", size)
    for at, length, aligned in writes:  # mid-page pieces and whole-page spans
        offset, length = span(at, length, aligned, size)
        data = rng.choice((bytes, bytearray))(rng.randbytes(length))
        rng.choice((region, view)).write(offset, data)
        reference_write(reference, offset, data)
    assert materialized(region) == materialized(reference)
    before = materialized(region)
    for at, length, aligned in reads:
        offset, length = span(at, length, aligned, size)
        expected = reference_join_read(reference, offset, length)
        for reader in (region, view):
            got = reader.read(offset, length)
            assert type(got) is bytes
            assert got == expected
    assert materialized(region) == before  # no read materializes a page
