"""Tests for the bounded LRU result cache."""

import pytest

from repro.engine.cache import ResultCache


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = ResultCache(max_size=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default="x") == "x"

    def test_capacity_evicts_least_recently_used(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")     # "b" is now the LRU entry
        cache.put("c", 3)  # evicts "b"
        assert "a" in cache and "b" not in cache

    def test_put_refreshes_recency_and_value(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)  # evicts "b", not the refreshed "a"
        assert cache.get("a") == 10 and "b" not in cache

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_size=0)

