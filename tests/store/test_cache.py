"""Unit tests for the epoch-aware LRU read cache (``repro.store.cache``)."""

import pytest

from repro.errors import ConfigError
from repro.store import ENTRY_OVERHEAD_BYTES, IndexCache, payload_weight

pytestmark = pytest.mark.store


def test_budget_must_be_positive():
    """A cache without a byte budget is a configuration error."""
    with pytest.raises(ConfigError):
        IndexCache(0)
    with pytest.raises(ConfigError):
        IndexCache(-1)


def test_hit_after_put_and_epoch_isolation():
    """Entries are keyed by (table, key, epoch) — epochs never mix."""
    cache = IndexCache(4096)
    cache.put("idx", "ename", 3, {"a.xml": ("p",)})
    assert cache.get("idx", "ename", 3) == {"a.xml": ("p",)}
    assert cache.get("idx", "ename", 2) is None
    assert cache.get("idx", "other", 3) is None
    assert cache.get("other", "ename", 3) is None
    assert cache.hits == 1 and cache.misses == 3


def test_negative_results_are_cached():
    """An absent key (empty payload map) is a cacheable answer too."""
    cache = IndexCache(4096)
    cache.put("idx", "nope", 1, {})
    assert cache.get("idx", "nope", 1) == {}
    assert cache.hits == 1


def test_lru_eviction_respects_recency():
    """The least-recently-*used* entry goes first, not the oldest put."""
    weight = payload_weight({"a.xml": "x" * 16})
    cache = IndexCache(3 * weight)
    for key in ("k1", "k2", "k3"):
        cache.put("idx", key, 1, {"a.xml": "x" * 16})
    assert cache.get("idx", "k1", 1) is not None  # refresh k1
    cache.put("idx", "k4", 1, {"a.xml": "x" * 16})  # evicts k2, not k1
    assert cache.get("idx", "k1", 1) is not None
    assert cache.get("idx", "k2", 1) is None
    assert cache.evictions == 1
    assert cache.current_bytes <= cache.max_bytes


def test_oversized_entries_are_not_cached():
    """A payload bigger than the whole budget is simply skipped."""
    cache = IndexCache(ENTRY_OVERHEAD_BYTES + 8)
    cache.put("idx", "big", 1, {"a.xml": "x" * 1024})
    assert len(cache) == 0
    assert cache.get("idx", "big", 1) is None


def test_an_oversized_replacement_drops_the_entry_it_replaces():
    """A re-put too heavy to cache must not leave the old map served."""
    cache = IndexCache(2 * ENTRY_OVERHEAD_BYTES + 64)
    cache.put("idx", "k", 1, {"a.xml": "x"})
    cache.put("idx", "other", 1, {})
    cache.put("idx", "k", 1, {"a.xml": "x" * 1024})
    assert cache.get("idx", "k", 1) is None
    assert len(cache) == 1
    assert cache.current_bytes == payload_weight({})
    assert cache.puts == 2 and cache.evictions == 0


def test_replacing_an_entry_adjusts_bytes():
    """Re-putting the same key replaces the entry and its weight."""
    cache = IndexCache(8192)
    cache.put("idx", "k", 1, {"a.xml": "x" * 100})
    first = cache.current_bytes
    cache.put("idx", "k", 1, {"a.xml": "x"})
    assert len(cache) == 1
    assert cache.current_bytes < first


def test_discard_is_write_through_invalidation():
    """An index write drops exactly the written key's entry."""
    cache = IndexCache(4096)
    cache.put("idx", "k1", 1, {"a.xml": ("p",)})
    cache.put("idx", "k2", 1, {"b.xml": ("p",)})
    cache.discard("idx", "k1", 1)
    cache.discard("idx", "missing", 1)  # no-op, no error
    assert cache.get("idx", "k1", 1) is None
    assert cache.get("idx", "k2", 1) is not None
    assert cache.invalidations == 1


def test_invalidate_table_drops_every_epoch():
    """Quarantining a table clears its entries across all epochs."""
    cache = IndexCache(4096)
    cache.put("idx-a", "k", 1, {})
    cache.put("idx-a", "k", 2, {})
    cache.put("idx-b", "k", 1, {})
    assert cache.invalidate_table("idx-a") == 2
    assert len(cache) == 1
    assert cache.get("idx-b", "k", 1) is not None


def test_invalidate_tables_is_the_manifest_flip_hook():
    """A flip drops only the named tables; others survive intact."""
    cache = IndexCache(4096)
    cache.put("idx-lup-lu-e1", "k1", 1, {})
    cache.put("idx-lup-lup-e1", "k1", 1, {})
    cache.put("idx-lup-lu-e1", "k2", 1, {})
    cache.put("idx-lu-lu-e1", "k1", 1, {})  # a different index
    dropped = cache.invalidate_tables(
        {"idx-lup-lu-e1", "idx-lup-lup-e1", "idx-lup-lu-e2",
         "idx-lup-lup-e2"})  # old + new epoch tables, new ones empty
    assert dropped == 3
    assert len(cache) == 1
    assert cache.get("idx-lu-lu-e1", "k1", 1) is not None
    assert cache.invalidations == 3


def test_invalidate_all_is_the_tear_down_hook():
    """Tearing a deployment down empties the cache wholesale."""
    cache = IndexCache(4096)
    for key in ("k1", "k2", "k3"):
        cache.put("idx", key, 1, {})
    assert cache.invalidate_all() == 3
    assert len(cache) == 0
    assert cache.current_bytes == 0
    assert cache.invalidations == 3


def test_hit_ratio_and_stats_snapshot():
    """Stats expose everything the monitoring report renders."""
    cache = IndexCache(4096)
    assert cache.hit_ratio == 0.0
    cache.put("idx", "k", 1, {"a.xml": ("p",)})
    cache.get("idx", "k", 1)
    cache.get("idx", "gone", 1)
    assert cache.hit_ratio == 0.5
    stats = cache.stats()
    assert set(stats) == {"entries", "bytes", "max_bytes", "hits",
                          "misses", "hit_ratio", "puts", "evictions",
                          "invalidations"}
    assert stats["entries"] == 1.0
    assert stats["hits"] == 1.0 and stats["misses"] == 1.0


def test_ordinals_name_stored_entries_without_touching_them():
    """Each put stamps a fresh ordinal; the peek counts and moves nothing."""
    cache = IndexCache(4096)
    cache.put("idx", "a", 1, {})
    cache.put("idx", "b", 1, {})
    cache.put("idx", "a", 1, {"x.xml": None}, tenant="t")
    assert cache.ordinals("idx", ["a", "b"], 1) == (1, 2)
    assert cache.ordinals("idx", ["b", "a", "b"], 1) == (2, 1, 2)
    assert cache.ordinals("idx", ["a"], 1, tenant="t") == (3,)
    assert cache.ordinals("idx", [], 1) == ()
    assert cache.ordinals("idx", ["a", "gone"], 1) is None
    assert cache.ordinals("idx", ["a"], 2) is None
    assert cache.hits == cache.misses == 0
    assert next(iter(cache._entries))[2] == "a"  # LRU order untouched
    # Re-put, discard + re-put: never the same ordinal twice.
    cache.put("idx", "a", 1, {})
    cache.discard("idx", "b", 1)
    cache.put("idx", "b", 1, {})
    assert cache.ordinals("idx", ["a", "b"], 1) == (4, 5)


def test_answers_are_computed_once_and_kept_out_of_stats():
    """The answer table computes on first ask and counts beside stats()."""
    cache = IndexCache(4096)
    calls = []

    def compute():
        calls.append(1)
        return ("a.xml",)

    before = cache.stats()
    assert cache.answer(("q", (1, 2)), compute) == ("a.xml",)
    assert cache.answer(("q", (1, 2)), compute) == ("a.xml",)
    assert cache.answer(("q", (1, 3)), compute) == ("a.xml",)
    assert len(calls) == 2
    assert (cache.answer_hits, cache.answer_misses) == (1, 2)
    assert cache.stats() == before and cache.current_bytes == 0

    def broken():
        raise ValueError("damaged block")

    with pytest.raises(ValueError):
        cache.answer("bad", broken)
    assert cache.answer("bad", compute) == ("a.xml",)  # nothing was stored
    cache.invalidate_all()
    assert cache.answer(("q", (1, 2)), compute) == ("a.xml",)
    assert len(calls) == 4
