"""Unit tests for the pin-aware LRU value cache."""

from repro.kv.cache import ValueCache


class TestBasics:
    def test_miss_then_fill_then_hit(self):
        cache = ValueCache(4)
        hit, _value = cache.get(b"k")
        assert not hit
        cache.fill(b"k", b"v", 100)
        hit, value = cache.get(b"k")
        assert hit and value == b"v"

    def test_put_overwrites(self):
        cache = ValueCache(4)
        cache.put(b"k", b"v1")
        cache.put(b"k", b"v2")
        assert cache.get(b"k") == (True, b"v2")

    def test_block_addr_tracking(self):
        cache = ValueCache(4)
        cache.fill(b"k", b"v", 4096)
        assert cache.block_addr_of(b"k") == 4096
        assert cache.block_addr_of(b"missing") is None

    def test_hit_rate(self):
        cache = ValueCache(4)
        cache.put(b"k", b"v")
        cache.get(b"k")
        cache.get(b"other")
        assert cache.hit_rate == 0.5

    def test_len_and_contains(self):
        cache = ValueCache(4)
        cache.put(b"a", b"1")
        assert len(cache) == 1
        assert b"a" in cache and b"b" not in cache


class TestEviction:
    def test_lru_eviction_order(self):
        cache = ValueCache(2)
        cache.put(b"a", b"1")
        cache.put(b"b", b"2")
        cache.get(b"a")  # refresh a
        cache.put(b"c", b"3")  # evicts b
        assert b"a" in cache and b"c" in cache and b"b" not in cache

    def test_pinned_entries_survive_eviction(self):
        """§4.2: entries with pending updates are never evicted."""
        cache = ValueCache(2)
        cache.put(b"pinned", b"p", pending=True)
        cache.put(b"a", b"1")
        cache.put(b"b", b"2")
        cache.put(b"c", b"3")
        assert b"pinned" in cache

    def test_unpin_restores_evictability(self):
        cache = ValueCache(1)
        cache.put(b"k", b"v", pending=True)
        cache.applied(b"k", 128)
        cache.put(b"other", b"x")
        assert b"k" not in cache

    def test_multiple_pending_updates_need_multiple_applied(self):
        cache = ValueCache(1)
        cache.put(b"k", b"v1", pending=True)
        cache.put(b"k", b"v2", pending=True)
        cache.applied(b"k", None)
        cache.put(b"other", b"x")
        assert b"k" in cache  # still one pending
        cache.applied(b"k", None)
        cache.put(b"other2", b"y")
        assert b"k" not in cache

    def test_zero_capacity(self):
        cache = ValueCache(0)
        cache.put(b"k", b"v")
        assert b"k" not in cache


class TestConsistency:
    def test_fill_does_not_overwrite_pending(self):
        """A racing remote read must not clobber a newer pending value."""
        cache = ValueCache(4)
        cache.put(b"k", b"new", pending=True)
        cache.fill(b"k", b"stale-from-remote", 64)
        assert cache.get(b"k") == (True, b"new")

    def test_fill_updates_applied_entry(self):
        cache = ValueCache(4)
        cache.put(b"k", b"v1", pending=True)
        cache.applied(b"k", 64)
        cache.fill(b"k", b"v2", 64)
        assert cache.get(b"k") == (True, b"v2")

    def test_tombstone_hit_reports_deleted(self):
        """A pending delete must hit as 'known deleted', not miss."""
        cache = ValueCache(4)
        cache.put(b"k", b"v")
        cache.mark_deleted(b"k")
        hit, value = cache.get(b"k")
        assert hit and value is None

    def test_tombstone_removed_once_applied(self):
        cache = ValueCache(4)
        cache.mark_deleted(b"k", pending=True)
        cache.applied(b"k", None)
        assert b"k" not in cache

    def test_fill_does_not_resurrect_tombstone(self):
        cache = ValueCache(4)
        cache.mark_deleted(b"k", pending=True)
        cache.fill(b"k", b"zombie", 64)
        hit, value = cache.get(b"k")
        assert hit and value is None

    def test_put_after_tombstone_revives(self):
        cache = ValueCache(4)
        cache.mark_deleted(b"k", pending=True)
        cache.applied(b"k", None)
        cache.put(b"k", b"back")
        assert cache.get(b"k") == (True, b"back")

    def test_applied_on_unknown_key_is_noop(self):
        cache = ValueCache(4)
        cache.applied(b"ghost", 64)  # no exception

    def test_aborted_update_is_not_served(self):
        """A put whose commit failed must not be readable: the entry is
        dropped, so the next get falls through to replicated memory."""
        cache = ValueCache(4)
        cache.fill(b"k", b"committed", 64)
        cache.put(b"k", b"never-acked", pending=True)
        cache.aborted(b"k")
        assert b"k" not in cache
        assert cache.get(b"k") == (False, None)

    def test_aborted_keeps_an_entry_with_updates_still_pending(self):
        cache = ValueCache(4)
        cache.put(b"k", b"first", pending=True)
        cache.put(b"k", b"second", pending=True)
        cache.aborted(b"k")
        assert cache.get(b"k") == (True, b"second")
        cache.aborted(b"k")
        assert b"k" not in cache

    def test_aborted_on_unknown_key_is_noop(self):
        ValueCache(4).aborted(b"ghost")  # no exception
