"""Equivalence of the run-storing preload and the per-key loop it replaced.

``KvServer.preload`` collects adjacent block images into runs of at most
256 KiB and stores each run with one region write per memory node (one
GF(256) encode per run under erasure coding), then flushes the index
table and bitmap through the same path.  It must leave exactly the state
the per-key loop left: every node's pages, the index, bitmap and
allocator, and the warmed cache in LRU order.  That loop is kept here as
the reference; a booted store is snapshotted once and restored before
each side runs.
"""

import copy
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.layout import BlockImage
from repro.kv.store import KvError
from repro.rdma.memory import PAGE_BYTES
from repro.sim import SEC
from tests.testing import make_kv_stack, run_scenario

MAX_KEYS = 640  # room for more than two 256 KiB runs of 1,040-byte blocks
RUN_BLOCKS = -(-256 * 1024 // 1040)  # blocks in a run that reached the bound


def reference_preload(server, items, warm_cache=True):
    """The per-key loop: each block stored on its own, then the index and
    bitmap block by block."""
    repmem, layout = server.repmem, server.layout
    amap, block_bytes = repmem.amap, repmem.config.block_bytes
    regions = [
        (n, repmem.memory_nodes[n].repmem_region)
        for n in sorted(repmem.states)
        if repmem.states[n] != "dead" and n in repmem.qps
    ]

    def store(addr, data):
        if not repmem.config.erasure_coding:
            for _n, region in regions:
                region.write(amap.raw_extent(addr), data)
            return
        chunks = repmem.rs.encode(data)
        for n, region in regions:
            region.write(amap.chunk_extent(amap.block_index(addr)), chunks[n])

    def store_range(addr, data):
        for begin in range(0, len(data), block_bytes):
            store(addr + begin, data[begin : begin + block_bytes].ljust(block_bytes, b"\0"))

    cache_budget = server.cache.capacity if warm_cache else 0
    for key, value in items:
        key, value = bytes(key), bytes(value)
        server._check_record(key, value)
        block_number = server._allocate_block()
        addr = layout.block_addr(block_number)
        bucket = layout.bucket_of(key)
        head = int(server.index[bucket])
        image = layout.encode_block(BlockImage(head, key, value))
        server.index[bucket] = addr
        store(addr, image)
        if cache_budget > 0:
            server.cache.fill(key, value, addr)
            cache_budget -= 1
    store_range(layout.index_offset, server.index.tobytes())
    store_range(layout.bitmap_offset, bytes(server.bitmap))


@lru_cache(maxsize=None)
def booted(ec):
    """A serving store (shared by the examples: each restores it first)."""
    sim, _fabric, group, _client = make_kv_stack(ec=ec, max_keys=MAX_KEYS)
    run_scenario(sim, group.wait_until_serving(timeout_us=2 * SEC))
    server = group.serving_coordinator().app
    return group, server, snapshot(group, server)


def snapshot(group, server):
    return (
        [
            dict(node.repmem_region._pages)  # pages are immutable: no copy
            for node in group.memory_nodes
        ],
        server.index[:],
        bytearray(server.bitmap),
        server._free_blocks,
        server._alloc_hint,
        copy.deepcopy(server.cache),
    )


def restore(group, server, saved):
    pages, index, bitmap, free_blocks, alloc_hint, cache = saved
    for node, node_pages in zip(group.memory_nodes, pages):
        node.repmem_region._pages.clear()  # in place: aliases share the dict
        node.repmem_region._pages.update(node_pages)
    server.index, server.bitmap = index[:], bytearray(bitmap)
    server._free_blocks, server._alloc_hint = free_blocks, alloc_hint
    server.cache = copy.deepcopy(cache)


def observed(group, server):
    """Everything preload writes, in comparable form."""
    pages = []
    for node in group.memory_nodes:
        region_pages = node.repmem_region._pages
        assert all(type(p) is bytes and len(p) == PAGE_BYTES for p in region_pages.values())
        pages.append(dict(region_pages))
    cache = [
        (key, entry.value, entry.block_addr, entry.pending, entry.tombstone)
        for key, entry in server.cache._entries.items()
    ]
    return (
        pages,
        server.index.tobytes(),
        bytes(server.bitmap),
        server._free_blocks,
        server._alloc_hint,
        cache,
    )


def run_side(preload, group, server, items, warm_cache):
    """*preload*'s resulting state, plus the error it raised (if any)."""
    try:
        preload(items, warm_cache)
        error = None
    except KvError as exc:
        error = str(exc)
    return observed(group, server), error


@settings(max_examples=40)
@given(
    ec=st.booleans(),
    count=st.one_of(st.integers(0, 2), st.integers(3, 40), st.integers(RUN_BLOCKS - 2, 320)),
    key_pool=st.integers(1, 400),
    taken=st.lists(st.integers(0, MAX_KEYS - 1), max_size=24),
    alloc_hint=st.integers(0, MAX_KEYS - 1),
    warm_cache=st.booleans(),
    refused_at=st.one_of(st.none(), st.integers(0, 320)),
    seed=st.integers(0, 2**32),
)
def test_preload_leaves_the_state_the_per_key_loop_left(
    ec, count, key_pool, taken, alloc_hint, warm_cache, refused_at, seed
):
    group, server, booted_state = booted(ec)
    rng = random.Random(seed)
    # A small key pool repeats keys; the 8,192-bucket index makes
    # distinct keys collide too.
    items = [
        (b"k%d" % rng.randrange(key_pool), rng.randbytes(rng.randrange(server.config.value_bytes + 1)))
        for _ in range(count)
    ]
    if refused_at is not None and refused_at < count:
        items[refused_at] = (items[refused_at][0], bytes(server.config.value_bytes + 1))
    restore(group, server, booted_state)
    for block in taken:  # blocks already allocated: runs break around them
        byte_index, bit = divmod(block, 8)
        if not server.bitmap[byte_index] & (1 << bit):
            server.bitmap[byte_index] |= 1 << bit
            server._free_blocks -= 1
    server._alloc_hint = alloc_hint  # allocation wraps: runs break there too
    before = snapshot(group, server)

    got = run_side(server.preload, group, server, iter(items), warm_cache)
    restore(group, server, before)
    expected = run_side(
        lambda it, warm: reference_preload(server, it, warm), group, server, iter(items), warm_cache
    )
    assert got == expected


@pytest.mark.parametrize("ec", [False, True])
def test_a_preloaded_store_serves_every_key_after_a_takeover(ec):
    """The stored runs are what a successor loads: every key reads back."""
    sim, _fabric, group, client = make_kv_stack(ec=ec, max_keys=MAX_KEYS, seed=3)
    run_scenario(sim, group.wait_until_serving(timeout_us=2 * SEC))
    items = [(b"key-%d" % i, b"value-%d" % i * (i % 40)) for i in range(300)]
    group.serving_coordinator().app.preload(items, warm_cache=False)

    def takeover_then_read():
        group.crash_coordinator()
        yield from group.wait_until_serving(timeout_us=5 * SEC)
        values = []
        for key, _ in items:
            values.append((yield from client.get(key)))
        return values

    assert run_scenario(sim, takeover_then_read()) == [value for _, value in items]
