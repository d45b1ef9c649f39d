"""Unit tests for the one log merge (the Raft-style divergence handling).

:func:`repro.core.rules.merge_logs` serves both logs: the KV WAL keyed
by sequence number (§4.3 replay) and the replicated-memory WAL keyed by
log index (§3.4.1 recovery), so every case runs against both record
types.  A takeover's KV replay (:class:`repro.kv.store.WalReplay`) keeps
only the records above the applied watermark, and must still replay
exactly what the merge over the whole logs replays.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import cpu_node, rules
from repro.core.membership import RESERVED_BYTES
from repro.kv import store
from repro.kv.config import KvConfig
from repro.kv.layout import OP_DELETE, OP_PUT, KvLayout, WalRecord
from repro.sim import MS, SEC
from repro.storage.wal import WalEntry
from tests.testing import make_group, make_kv_stack, run_scenario

merge_logs = rules.merge_logs


def kv_record(seq, term, value=b"v"):
    return WalRecord(seq, OP_PUT, b"k", value, term)


def log_entry(index, term, value=b"v"):
    return WalEntry(index, 0, value, term)


KINDS = (kv_record, log_entry)


def keys(merged):
    """Positions of merged records (``seq`` or ``log_index``, field 0)."""
    return [record[0] for record in merged]


class TestKvWalMerge:
    def test_union_of_disjoint_nodes(self):
        for rec in KINDS:
            a = {1: rec(1, 1), 3: rec(3, 1)}
            b = {2: rec(2, 1)}
            assert keys(merge_logs([a, b], 0)) == [1, 2, 3]

    def test_floor_excludes_applied_prefix(self):
        for rec in KINDS:
            records = {i: rec(i, 1) for i in range(1, 10)}
            assert keys(merge_logs([records], 6)) == [7, 8, 9]

    def test_higher_term_wins_at_same_seq(self):
        for rec in KINDS:
            stale = {5: rec(5, 1, b"stale")}
            fresh = {5: rec(5, 2, b"fresh")}
            merged = merge_logs([stale, fresh], 0)
            assert merged == [rec(5, 2, b"fresh")]
            # Order of the node list must not matter.
            assert merge_logs([fresh, stale], 0) == merged

    def test_stale_suffix_beyond_newest_term_truncated(self):
        """A deposed coordinator's records past the successor's last
        position must be dropped, not resurrected."""
        for rec in KINDS:
            deposed = {1: rec(1, 1), 2: rec(2, 1), 3: rec(3, 1), 4: rec(4, 1)}
            successor = {1: rec(1, 1), 2: rec(2, 2)}
            merged = merge_logs([deposed, successor], 0)
            assert [(r[0], r.term) for r in merged] == [(1, 1), (2, 2)]

    def test_empty_inputs(self):
        assert merge_logs([], 0) == []
        assert merge_logs([{}, {}], 0) == []

    def test_single_node_passthrough(self):
        for rec in KINDS:
            records = {1: rec(1, 3), 2: rec(2, 3)}
            assert keys(merge_logs([records], 0)) == [1, 2]

    def test_gap_in_sequences_preserved_up_to_last(self):
        """Gaps (uncommitted holes) do not block later records."""
        for rec in KINDS:
            records = {1: rec(1, 1), 4: rec(4, 1)}
            assert keys(merge_logs([records], 0)) == [1, 4]

    def test_mixed_terms_interleaved(self):
        for rec in KINDS:
            node_a = {1: rec(1, 1), 2: rec(2, 1), 3: rec(3, 3)}
            node_b = {2: rec(2, 2), 3: rec(3, 1), 5: rec(5, 2)}
            merged = merge_logs([node_a, node_b], 0)
            # Max term overall is 3 at 3 -> keep <= 3, max term per position.
            assert [(r[0], r.term) for r in merged] == [(1, 1), (2, 2), (3, 3)]


class TestRecoveryUsesTheMerge:
    def test_floor_zero_keeps_log_index_one(self):
        """Log indices start at 1, so the default floor drops nothing."""
        assert keys(merge_logs([{1: log_entry(1, 1)}])) == [1]

    def test_repairs_rewrite_what_each_serving_node_lacks(self):
        merged = [log_entry(1, 1), log_entry(2, 2)]
        per_node = {0: {1: merged[0], 2: merged[1]}, 1: {1: merged[0], 2: log_entry(2, 1)}}
        assert rules.repairs(merged, per_node, {0, 1, 2}) == [
            (1, merged[1]),
            (2, merged[0]),
            (2, merged[1]),
        ]

    def test_next_index_follows_the_last_merged_index(self, monkeypatch):
        """``recover_log`` merges from floor 0 and continues the log at the
        last merged index + 1; with nothing to merge (a fresh group) the
        next index stays where it was."""
        merges, recoveries = [], []
        real_merge, real_recover = rules.merge_logs, cpu_node.recover_log

        def spy_merge(per_node, floor=0):
            merged = real_merge(per_node, floor)
            merges.append((floor, merged))
            return merged

        def spy_recover(repmem):
            before = repmem.next_index
            result = yield from real_recover(repmem)
            recoveries.append((before, repmem.next_index))
            return result

        monkeypatch.setattr(rules, "merge_logs", spy_merge)
        monkeypatch.setattr(cpu_node, "recover_log", spy_recover)
        sim, _fabric, group = make_group()

        def scenario():
            coord = yield from group.wait_until_serving(timeout_us=2 * SEC)
            for _ in range(5):
                yield from coord.repmem.write(RESERVED_BYTES, b"x")
            coord.crash()
            yield from group.wait_until_serving(timeout_us=3 * SEC)

        run_scenario(sim, scenario(), until=10 * SEC)
        assert len(merges) == len(recoveries) >= 2
        assert {floor for floor, _ in merges} == {0}
        assert merges[0][1] == [] and recoveries[0] == (1, 1)
        last_merged = merges[-1][1][-1].log_index
        assert last_merged > 5 and recoveries[-1][1] == last_merged + 1


LAYOUT = KvLayout(KvConfig(max_keys=64, wal_entries=16))

#: One node's log: seq -> (term, op, value, torn).  A torn slot fails its
#: checksum, as a write cut by a crash does, and decodes to nothing.
node_log = st.dictionaries(
    st.integers(1, 12),
    st.tuples(
        st.integers(1, 3), st.sampled_from((OP_PUT, OP_DELETE)), st.binary(max_size=8), st.booleans()
    ),
    max_size=10,
)


def slots(log):
    """The raw WAL slots of *log*, in slot order, each padded to the slot size."""
    raws = []
    for seq, (term, op, value, torn) in sorted(log.items(), key=lambda item: item[0] % 5):
        raw = bytearray(LAYOUT.encode_wal_record(WalRecord(seq, op, b"k%d" % seq, value, term)))
        if torn:
            raw[-1] ^= 0xFF
        raws.append(bytes(raw.ljust(LAYOUT.wal_slot_bytes, b"\0")))
    return raws


class TestBoundedReplay:
    @settings(max_examples=300)
    @given(logs=st.lists(node_log, min_size=1, max_size=3), floor=st.integers(0, 12))
    # A deposed coordinator's stale suffix (4-6 at term 1) on one node; the
    # successor's last entry (3 at term 2) at or below the floor drops it.
    @example(
        logs=[
            {i: (1, OP_PUT, b"old", False) for i in range(1, 7)},
            {i: (2 if i > 1 else 1, OP_PUT, b"new", i == 5) for i in (1, 2, 3, 5)},
        ],
        floor=3,
    )
    def test_replays_what_the_merge_over_the_whole_logs_replays(self, logs, floor):
        whole = [{r.seq: r for r in map(LAYOUT.decode_wal_record, slots(log)) if r} for log in logs]
        replay = store.WalReplay(LAYOUT.decode_wal_record, floor)
        kept = [{r.seq: r for r in map(replay.decode_wal_record, slots(log)) if r} for log in logs]
        assert rules.merge_logs(kept, floor, replay.tail) == rules.merge_logs(whole, floor)
        assert replay.highest == max([floor, *(seq for log in whole for seq in log)])
        held = {id(r): r for node in kept for r in node.values()}
        assert all(r.seq > floor for r in held.values())
        assert len(held) == len({(r.seq, r) for r in held.values()})  # each record once

    def test_a_takeover_holds_only_the_records_above_the_watermark(self, monkeypatch):
        """After 100 puts the successor's replay reads three whole logs
        but keeps only the records above the watermark, each once."""
        replays = []

        class Counted(store.WalReplay):
            def __init__(self, decode, floor):
                super().__init__(decode, floor)
                self.seen, self.kept = 0, {}
                replays.append(self)

            def decode_wal_record(self, raw):
                self.seen += self._decode(raw) is not None
                record = super().decode_wal_record(raw)
                if record is not None:
                    self.kept[id(record)] = record
                return record

        monkeypatch.setattr(store, "WalReplay", Counted)
        sim, _fabric, group, client = make_kv_stack()

        def scenario():
            coordinator = yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(100):
                yield from client.put(b"k%02d" % (index % 40), b"v%d" % index)
            yield sim.timeout(5 * MS)
            coordinator.crash()
            yield from group.wait_until_serving(timeout_us=5 * SEC)

        run_scenario(sim, scenario())
        replay = replays[-1]
        assert replay.floor >= 64 and replay.seen == 3 * 100  # three nodes' whole logs
        assert all(r.seq > replay.floor for r in replay.kept.values())
        assert len(replay.kept) <= replay.highest - replay.floor
