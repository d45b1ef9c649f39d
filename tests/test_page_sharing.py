"""Copy-on-write pages: replicas that hold the same bytes share one copy.

``MemoryRegion`` stores immutable pages and remembers, for a bounded
number of page writes, which page it built from which payload and old
page, so a second region applying the same ``bytes`` payload over the
same page stores the very same object.  Sharing must never change what a
region holds: every region reads back exactly what a plain per-region
model holds, whatever order the regions apply their writes in and
whatever happens to a mutable payload after it was written.  The budget
pins the saving on a live group: after a fixed-seed load the three
memory nodes hold about one replica's worth of distinct page bytes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdma import memory
from repro.rdma.memory import PAGE_BYTES, MemoryRegion
from repro.sim import SEC
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
    regions = [r for node in nodes for r in (node.admin_region, node.repmem_region, node.meta_region)]
    distinct = {id(page): len(page) for region in regions for page in region._pages.values()}
    replica = [sum(map(len, node.repmem_region._pages.values())) for node in nodes]
    assert len(nodes) == 3 and replica == [ONE_REPLICA_PAGE_BYTES] * 3
    assert sum(distinct.values()) <= DISTINCT_PAGE_BYTES_CEILING
