"""Copy-on-write pages: replicas that hold the same bytes share one copy.

``MemoryRegion`` stores immutable pages.  The operation that writes one
``bytes`` payload to several regions passes each write the same share
scope, which remembers which page it built from which payload position
and old page, so a second region applying that payload over the same
page stores the very same object.  Sharing must never change what a
region holds: every region reads back exactly what a plain per-region
model holds, whatever order the regions apply their writes in and
whatever happens to a mutable payload after it was written.  The budget
pins the saving on a live group: after a fixed-seed load the three
memory nodes hold about one replica's worth of distinct page bytes, and
a node re-copied after a crash holds its peers' pages, not copies.  A
scope lives only as long as its verbs: once they complete, only the
regions hold pages and payloads, and ``repro.rdma.memory`` keeps no
mutable state of its own.
"""

import collections
import gc
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
)
def test_every_region_reads_back_its_own_writes(writes, regions, schedule_seed):
    rng = random.Random(schedule_seed)
    payloads = []
    for offset, length, kind in writes:
        data = rng.randbytes(max(0, min(length, SIZE - offset - SHIFT)))
        payloads.append((offset, bytearray(data) if kind != "bytes" else data, kind))
    # Each region applies its own subsequence of the writes, in its own
    # order (most keep the writes' order, as replicas do), now and then a
    # few bytes from where the others put it; a random schedule
    # interleaves the regions.  Each payload's writes share one scope.
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
    scopes = [{} for _ in payloads]
    for r in steps:
        index, shift = orders[r][cursors[r]]
        offset, data, kind = payloads[index]
        offset += shift
        cursors[r] += 1
        targets[r].write(offset, memoryview(data) if kind == "memoryview" else data, scopes[index])
        models[r][offset : offset + len(data)] = data
        if kind != "bytes":  # the writer reuses its buffer: no region may see that
            data[:] = rng.randbytes(len(data))
    for region, model in zip(targets, models):
        assert region.read(0, SIZE) == bytes(model)
        assert all(type(p) is bytes and len(p) == PAGE_BYTES for p in region._pages.values())


@settings(max_examples=80)
@given(
    spans=st.lists(st.tuples(st.integers(0, SIZE - 1), st.integers(0, 3 * PAGE_BYTES)), max_size=6),
    seed=st.integers(0, 2**32),
)
def test_a_write_of_what_a_scoped_read_returned_stores_exactly_that(spans, seed):
    """A recovery copy's shape: a read records the pages it spans in a
    scope and the write of its result uses it.  The write must store the
    bytes it was given, never more of a recorded page than it covers, and
    every whole page it covers is the source's page object."""
    rng = random.Random(seed)
    source, target = MemoryRegion("source", SIZE), MemoryRegion("target", SIZE)
    source.write(0, rng.randbytes(SIZE))
    target.write(0, rng.randbytes(SIZE))
    model = bytearray(target.read(0, SIZE))
    for offset, length in spans:
        length = min(length, SIZE - offset)
        share = {}
        data = source.read(offset, length, share)
        target.write(offset, data, share)
        model[offset : offset + length] = data
        first, last = -(-offset // PAGE_BYTES), (offset + length) // PAGE_BYTES
        assert all(target._pages[i] is source._pages[i] for i in range(first, last))
    assert target.read(0, SIZE) == bytes(model)


def test_replicas_applying_the_same_payload_share_its_pages():
    payload = random.Random(7).randbytes(3 * PAGE_BYTES)
    regions = [MemoryRegion(f"r{r}", 8 * PAGE_BYTES) for r in range(3)]
    share = {}
    for region in regions:
        region.write(PAGE_BYTES + 10, payload, share)  # two partial pages, two whole ones
    first = regions[0]._pages
    assert len(first) == 4
    for region in regions[1:]:
        assert all(region._pages[i] is page for i, page in first.items())
    mutable, share = bytearray(payload), {}
    for region in regions:
        region.write(0, mutable, share)  # a mutable payload is copied, never shared
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


def test_the_memory_module_holds_no_mutable_state():
    state = [
        name
        for name, value in vars(memory).items()
        if not name.startswith("__")
        and isinstance(value, (dict, list, set, bytearray, collections.deque))
    ]
    assert state == []


def test_no_page_or_payload_outlives_its_verbs_outside_a_region(monkeypatch):
    """Once the fan-out writes, applies and recovery copy of a run have
    completed, the regions are the only holders of every page they store
    and of every payload written with a share scope."""
    payloads = []
    write = MemoryRegion.write

    def recording(region, offset, data, share=None):
        if share is not None and type(data) is bytes:
            payloads.append(data)
        write(region, offset, data, share)

    monkeypatch.setattr(MemoryRegion, "write", recording)
    group, _repmem = recovered_group(seed=0)
    regions = [
        region._pages
        for node in group.memory_nodes
        for region in (node.admin_region, node.repmem_region, node.meta_region)
    ]
    pages = [page for held in regions for page in held.values() if page is not memory._ZERO_PAGE]
    assert len(payloads) > 1000 and pages
    gc.collect()
    wanted = {id(obj) for obj in pages + payloads}
    allowed = {id(obj) for obj in regions + [regions, pages, payloads]}
    holders = [
        type(obj).__name__
        for obj in gc.get_objects()
        if id(obj) not in allowed and refers_to(obj, wanted, allowed)
    ]
    assert holders == []


def refers_to(obj, wanted, allowed, depth=3):
    """Whether *obj* refers to an object whose id is in *wanted*, directly or
    through tuples and dicts the collector does not track (those holding
    only bytes, ints and such untracked containers), *allowed* ones aside."""
    for referent in gc.get_referents(obj):
        if id(referent) in wanted:
            return True
        if id(referent) in allowed or type(referent) not in (tuple, dict) or not depth:
            continue
        if not gc.is_tracked(referent) and refers_to(referent, wanted, allowed, depth - 1):
            return True
    return False
