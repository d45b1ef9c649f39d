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
"""

from repro.core import recovery
from repro.kv import store
from repro.sim import SEC
from repro.storage.memory_node import REPMEM_REGION
from tests.testing import make_kv_stack, run_scenario

PUTS = 40


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
        scans.append((decode.__name__, len(decoded), occupied))
        return entries

    monkeypatch.setattr(recovery, "scan_log", counting_scan)
    monkeypatch.setattr(store, "scan_log", counting_scan)
    sim, _fabric, group, client = make_kv_stack()

    run_scenario(sim, group.wait_until_serving(timeout_us=2 * SEC))
    assert {name for name, _, _ in scans} == {"decode", "decode_wal_record"}
    assert all(decoded == occupied == 0 for _, decoded, occupied in scans), scans

    def load_then_takeover():
        for index in range(PUTS):
            yield from client.put(b"k%02d" % index, b"v%02d" % index)
        scans.clear()
        group.crash_coordinator()
        yield from group.wait_until_serving(timeout_us=5 * SEC)
        return (yield from client.get(b"k07"))

    assert run_scenario(sim, load_then_takeover()) == b"v07"
    assert {name for name, _, _ in scans} == {"decode", "decode_wal_record"}
    assert all(decoded == occupied > 0 for _, decoded, occupied in scans), scans
    assert all(decoded == PUTS for name, decoded, _ in scans if name == "decode_wal_record")
