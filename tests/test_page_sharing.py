"""Copy-on-write pages: replicas that hold the same bytes share one copy.

``MemoryRegion`` stores immutable pages and remembers, for a bounded
number of page writes, which page it built from which payload and old
page, so a second region applying the same ``bytes`` payload over the
same page stores the very same object.  Sharing must never change what a
region holds: every region reads back exactly what a plain per-region
model holds, whatever order the regions apply their writes in and
whatever happens to a mutable payload after it was written.  The budget
pins the saving on a live group: after a fixed-seed load the three
memory nodes hold about one replica's worth of distinct page bytes, and
a node re-copied after a crash holds its peers' pages, not copies.  The
memo's retention is bounded in bytes as ``repro.rdma.memory`` states.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replicated_memory import NodeState
from repro.rdma import memory
from repro.rdma.memory import PAGE_BYTES, MemoryRegion
from repro.sim import MS, SEC
from tests.testing import make_kv_stack, run_scenario

SIZE = 6 * PAGE_BYTES - 100
SHIFT = 64  # the most a region may move a write from where the others put it


def flood():
    """Evict every memo entry: as many fresh one-page writes as it holds."""
    scratch = MemoryRegion("scratch", PAGE_BYTES)
    for _ in range(memory._MEMO_ENTRIES):
        scratch.write(0, bytes(PAGE_BYTES // 2) + b"x")


write_spec = st.tuples(
    st.integers(0, SIZE - SHIFT),  # offset
    st.integers(0, 3 * PAGE_BYTES),  # length (clipped to the region)
    st.sampled_from(("bytes", "bytearray", "memoryview")),
)


@settings(max_examples=120)
@given(
    writes=st.lists(write_spec, min_size=1, max_size=10),
    regions=st.integers(2, 4),
    schedule_seed=st.integers(0, 2**32),
    floods=st.lists(st.integers(0, 40), max_size=2),
)
def test_every_region_reads_back_its_own_writes(writes, regions, schedule_seed, floods):
    rng = random.Random(schedule_seed)
    payloads = []
    for offset, length, kind in writes:
        data = rng.randbytes(max(0, min(length, SIZE - offset - SHIFT)))
        payloads.append((offset, bytearray(data) if kind != "bytes" else data, kind))
    # Each region applies its own subsequence of the writes, in its own
    # order (most keep the writes' order, as replicas do), now and then a
    # few bytes from where the others put it; a random schedule
    # interleaves the regions.
    orders = []
    for _ in range(regions):
        order = [i for i in range(len(payloads)) if rng.random() < 0.85]
        if rng.random() < 0.3:
            rng.shuffle(order)
        orders.append([(i, rng.choice((0, 0, 0, rng.randrange(SHIFT)))) for i in order])
    steps = [r for r, order in enumerate(orders) for _ in order]
    rng.shuffle(steps)
    targets = [MemoryRegion(f"r{r}", SIZE) for r in range(regions)]
    models = [bytearray(SIZE) for _ in range(regions)]
    cursors = [0] * regions
    for step, r in enumerate(steps):
        if step in floods:
            flood()
        index, shift = orders[r][cursors[r]]
        offset, data, kind = payloads[index]
        offset += shift
        cursors[r] += 1
        targets[r].write(offset, memoryview(data) if kind == "memoryview" else data)
        models[r][offset : offset + len(data)] = data
        if kind != "bytes":  # the writer reuses its buffer: no region may see that
            data[:] = rng.randbytes(len(data))
    assert len(memory._memo) <= memory._MEMO_ENTRIES
    for region, model in zip(targets, models):
        assert region.read(0, SIZE) == bytes(model)
        assert all(type(p) is bytes and len(p) == PAGE_BYTES for p in region._pages.values())


def test_replicas_applying_the_same_payload_share_its_pages():
    payload = random.Random(7).randbytes(3 * PAGE_BYTES)
    regions = [MemoryRegion(f"r{r}", 8 * PAGE_BYTES) for r in range(3)]
    for region in regions:
        region.write(PAGE_BYTES + 10, payload)  # two partial pages, two whole ones
    first = regions[0]._pages
    assert len(first) == 4
    for region in regions[1:]:
        assert all(region._pages[i] is page for i, page in first.items())
    mutable = bytearray(payload)
    for region in regions:
        region.write(0, mutable)  # a mutable payload is copied, never shared
    assert regions[0]._pages[0] is not regions[1]._pages[0]
    assert regions[0]._pages[0] == regions[1]._pages[0]


#: Distinct page bytes (counted by object) across every region of the
#: three memory nodes after the fixed-seed preload and puts below, and
#: one replicated region's page bytes; the ceiling is the measured value.
#: Before pages were shared the same load held 909,312 bytes: three
#: replicas plus the small regions.  Lower is fine: tighten the ceiling.
DISTINCT_PAGE_BYTES_CEILING = 319_488
ONE_REPLICA_PAGE_BYTES = 294_912


def test_a_group_holds_about_one_replica_of_distinct_pages():
    sim, _fabric, group, client = make_kv_stack(max_keys=256, seed=0)
    run_scenario(sim, group.wait_until_serving(timeout_us=2 * SEC))
    group.serving_coordinator().app.preload((b"key-%d" % i, b"%d" % i * 90) for i in range(128))

    def load():
        for i in range(200):
            yield from client.put(b"key-%d" % (i % 64), b"value-%d" % i * 20)

    run_scenario(sim, load())
    nodes = group.memory_nodes
    replica = [sum(map(len, node.repmem_region._pages.values())) for node in nodes]
    assert len(nodes) == 3 and replica == [ONE_REPLICA_PAGE_BYTES] * 3
    assert distinct_page_bytes(nodes) <= DISTINCT_PAGE_BYTES_CEILING


def distinct_page_bytes(nodes):
    """Page bytes across every region of *nodes*, each page object once."""
    regions = [r for n in nodes for r in (n.admin_region, n.repmem_region, n.meta_region)]
    pages = {id(page): len(page) for region in regions for page in region._pages.values()}
    return sum(pages.values())


#: Distinct page bytes of the same group after one memory node crashed,
#: missed 50 puts, was re-copied and took 50 more.  The recovered node
#: stores 32 more pages than its peers (zeros the copy wrote), all of them
#: the one zero page.  The measured value; the copy that stored a private
#: page for every page it copied held 745,472, and the one that rebuilt
#: the pages its fragment boundaries cut held 352,256.
RECOVERED_DISTINCT_PAGE_BYTES_CEILING = 327_680


def recovered_group(seed):
    """The fixed-seed group once node 2 crashed, missed 50 puts, was
    re-copied from its peers and took 50 more."""
    sim, _fabric, group, client = make_kv_stack(max_keys=256, seed=seed)
    run_scenario(sim, group.wait_until_serving(timeout_us=2 * SEC))
    coordinator = group.serving_coordinator()
    coordinator.app.preload((b"key-%d" % i, b"%d" % i * 90) for i in range(128))
    repmem = coordinator.repmem

    def puts(first, last):
        for i in range(first, last):
            yield from client.put(b"key-%d" % (i % 64), b"value-%d" % i * 20)

    def load():
        yield from puts(0, 100)
        group.crash_memory_node(2)
        yield from puts(100, 150)
        assert repmem.states[2] == NodeState.DEAD
        group.restart_memory_node(2)
        while repmem.states[2] != NodeState.LIVE:
            yield sim.timeout(10 * MS)
        yield from puts(150, 200)
        yield sim.timeout(50 * MS)  # let the appliers drain

    run_scenario(sim, load(), until=30 * SEC)
    return group, repmem


def test_a_recovered_replica_shares_its_peers_pages():
    group, repmem = recovered_group(seed=0)
    nodes = group.memory_nodes
    at, size = repmem.amap.raw_extent(0), repmem.config.data_bytes
    recovered = nodes[2].repmem_region
    assert recovered.read(at, size) == nodes[0].repmem_region.read(at, size)
    zeros = [page for page in recovered._pages.values() if page == memory._ZERO_PAGE]
    assert zeros and all(page is memory._ZERO_PAGE for page in zeros)
    assert distinct_page_bytes(nodes) <= RECOVERED_DISTINCT_PAGE_BYTES_CEILING


def test_a_recovered_replica_holds_no_private_copy_of_a_peer_page():
    """Pages a copy fragment's boundary cuts are shared too: the copy
    rebuilds such a page from two fragments, and the second write stores
    the page the read recorded.  A page may differ from its peers' (WAL
    slots the node missed while it was down), but none is an equal copy."""
    group, repmem = recovered_group(seed=1)
    peers = [node.repmem_region._pages for node in group.memory_nodes[:2]]
    recovered = group.memory_nodes[2].repmem_region._pages
    assert repmem.amap.raw_extent(0) % PAGE_BYTES  # so every fragment boundary cuts a page
    copies = [
        i
        for i, page in recovered.items()
        if any(peer.get(i) == page and peer.get(i) is not page for peer in peers)
    ]
    assert copies == []


def test_a_flood_of_multi_page_reads_pins_the_stated_payload_bytes():
    """Read-side entries count against the same 512: once a run of 256 KiB
    reads (64-65 pages each, cut ones included) fills the memo, it pins at
    most ``512 // 64 + 1`` of them, 2.25 MiB, and nothing else."""
    size = 256 * 1024
    region = MemoryRegion("flooded", 2 * size)
    region.write(0, random.Random(3).randbytes(2 * size))
    reads = []
    for shift in [0, 100, 4096, 1, 0, 2048, 0, 0, 7, 0, 0, 0, 4095, 0, 0, 0]:
        reads.append(region.read(shift, size))
        assert len(memory._memo) <= memory._MEMO_ENTRIES
        held = {id(entry[0]): len(entry[0]) for entry in memory._memo.values()}
        if len(reads) > 9:  # the run fills the memo: only its reads are left
            assert set(held) <= set(map(id, reads))
            assert sum(held.values()) <= (memory._MEMO_ENTRIES // 64 + 1) * size == 9 * size
