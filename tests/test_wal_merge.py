"""Unit tests for the one log merge (the Raft-style divergence handling).

:func:`repro.core.rules.merge_logs` serves both logs: the KV WAL keyed
by sequence number (§4.3 replay) and the replicated-memory WAL keyed by
log index (§3.4.1 recovery), so every case runs against both record
types.
"""

from repro.core import cpu_node, rules
from repro.core.membership import RESERVED_BYTES
from repro.kv.layout import OP_PUT, WalRecord
from repro.sim import SEC
from repro.storage.wal import WalEntry
from tests.testing import make_group, run_scenario

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
