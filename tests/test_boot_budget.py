"""Boot budget: the log scans decode what the logs hold, not what they could hold.

Every group boot and every coordinator takeover scans each memory node's
replicated-memory WAL (§3.4.1) and KV WAL (§4.3) through
:func:`repro.core.recovery.scan_log`.  In the style of
``tests/test_hot_path_budget.py`` this pins that scan's host work as a
deterministic count: a fresh group's boot decodes no slot at all, and a
takeover decodes exactly the occupied slots (non-zero leading index
word) of each node it scans.  A scan that decodes in proportion to the
log's capacity again fails here rather than showing up as host noise in
``setup_s``.

The rest of ``setup_s`` is byte work, pinned the same way: preload
stores blocks in runs of at most 256 KiB, so it makes a bounded number
of region writes per node, and a read of a never-written range (the
scans' every chunk of an empty log tail) joins no zero pages.  A return
to per-key stores or per-page zero joins fails here deterministically.
"""

import collections

from repro.core import recovery
from repro.kv import store
from repro.rdma import memory
from repro.sim import SEC
from repro.storage.memory_node import REPMEM_REGION
from tests.testing import make_kv_stack, run_scenario

PUTS = 40
PRELOAD_KEYS = 600
RUN_BYTES = 256 * 1024


def scanned_logs(group):
    """Which log a scan read, by its ``(offset, slot bytes)``: the consensus
    WAL opens the replicated region, the KV WAL lies in its data zone."""
    coordinator = group.serving_coordinator()
    repmem, layout = coordinator.repmem, coordinator.app.layout
    return {
        (0, repmem.wal_layout.slot_bytes): "consensus",
        (repmem.amap.raw_extent(layout.wal_offset), layout.wal_slot_bytes): "kv",
    }


def test_boot_decodes_nothing_and_takeover_decodes_only_occupied_slots(monkeypatch):
    scans = []
    real_scan = recovery.scan_log

    def counting_scan(qp, offset, count, slot_bytes, decode):
        decoded = []

        def counted(slot):
            decoded.append(slot)
            return decode(slot)

        entries = yield from real_scan(qp, offset, count, slot_bytes, counted)
        region = qp.listener.lookup(REPMEM_REGION)
        occupied = sum(
            region.read(offset + slot * slot_bytes, 8) != bytes(8) for slot in range(count)
        )
        scans.append(((offset, slot_bytes), len(decoded), occupied))
        return entries

    monkeypatch.setattr(recovery, "scan_log", counting_scan)
    monkeypatch.setattr(store, "scan_log", counting_scan)
    sim, _fabric, group, client = make_kv_stack()

    run_scenario(sim, group.wait_until_serving(timeout_us=2 * SEC))
    logs = scanned_logs(group)
    assert {logs.get(log) for log, _, _ in scans} == {"consensus", "kv"}
    assert all(decoded == occupied == 0 for _, decoded, occupied in scans), scans

    def load_then_takeover():
        for index in range(PUTS):
            yield from client.put(b"k%02d" % index, b"v%02d" % index)
        scans.clear()
        group.crash_coordinator()
        yield from group.wait_until_serving(timeout_us=5 * SEC)
        return (yield from client.get(b"k07"))

    assert run_scenario(sim, load_then_takeover()) == b"v07"
    assert {logs.get(log) for log, _, _ in scans} == {"consensus", "kv"}
    assert all(decoded == occupied > 0 for _, decoded, occupied in scans), scans
    assert all(decoded == PUTS for log, decoded, _ in scans if logs[log] == "kv")


def test_preload_writes_each_node_once_per_run(monkeypatch):
    sim, _fabric, group, _client = make_kv_stack(max_keys=640)
    run_scenario(sim, group.wait_until_serving(timeout_us=2 * SEC))
    server = group.serving_coordinator().app
    writes = collections.Counter()
    real_write = memory.MemoryRegion.write

    def counting_write(self, offset, data, share=None):
        writes[id(self._pages)] += 1
        return real_write(self, offset, data, share)

    monkeypatch.setattr(memory.MemoryRegion, "write", counting_write)
    server.preload((b"key-%d" % i, b"value-%d" % i) for i in range(PRELOAD_KEYS))
    runs = -(-PRELOAD_KEYS * server.layout.block_bytes // RUN_BYTES)
    assert len(writes) == len(group.memory_nodes)
    assert all(count <= runs + 2 for count in writes.values()), (runs, writes)


class _CountingPages(dict):
    """A region's page dict that counts the zero pages a read joins in."""

    zero_pages = 0

    def get(self, index, *default):
        if default and index not in self:
            _CountingPages.zero_pages += 1
        return super().get(index, *default)


def test_boot_joins_no_zero_page_for_a_never_written_range(monkeypatch):
    real_init, real_read = memory.MemoryRegion.__init__, memory.MemoryRegion.read
    never_written = []  # zero pages joined by each multi-page read of such a range

    def counting_init(self, name, size):
        real_init(self, name, size)
        self._pages = _CountingPages()

    def classifying_read(self, offset, length, share=None):
        first, last = offset // memory.PAGE_BYTES, (offset + length - 1) // memory.PAGE_BYTES
        if first == last or not self._pages.keys().isdisjoint(range(first, last + 1)):
            return real_read(self, offset, length, share)
        before = _CountingPages.zero_pages
        data = real_read(self, offset, length, share)
        never_written.append(_CountingPages.zero_pages - before)
        return data

    monkeypatch.setattr(memory.MemoryRegion, "__init__", counting_init)
    monkeypatch.setattr(memory.MemoryRegion, "read", classifying_read)
    sim, _fabric, group, _client = make_kv_stack()
    run_scenario(sim, group.wait_until_serving(timeout_us=2 * SEC))
    assert never_written and not any(never_written), never_written
