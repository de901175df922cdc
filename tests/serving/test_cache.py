"""LRU prediction cache: eviction order, statistics, key construction."""

import numpy as np
import pytest

from repro.serving import SharedPredictionCache, prediction_cache_key

#: The flat-LRU cases run in one namespace, where the shared cache is a
#: plain LRU under its global budget.
NS = "model@v1"


class TestSharedPredictionCacheLRU:
    def test_put_get_roundtrip(self):
        cache = SharedPredictionCache(capacity=4)
        cache.put(NS, "a", 1)
        assert cache.get(NS, "a") == 1
        assert cache.namespace_sizes() == {NS: 1} and len(cache) == 1

    def test_miss_returns_none_and_counts(self):
        cache = SharedPredictionCache(capacity=4)
        assert cache.get(NS, "missing") is None
        assert cache.stats["misses"] == 1 and cache.stats["hits"] == 0

    def test_lru_eviction_order(self):
        cache = SharedPredictionCache(capacity=2)
        cache.put(NS, "a", 1)
        cache.put(NS, "b", 2)
        cache.get(NS, "a")          # refresh "a" -> "b" is now least recent
        cache.put(NS, "c", 3)       # evicts "b"
        assert cache.get(NS, "b") is None
        assert cache.get(NS, "a") == 1 and cache.get(NS, "c") == 3
        assert cache.stats["evictions"] == 1

    def test_overwrite_does_not_evict(self):
        cache = SharedPredictionCache(capacity=2)
        cache.put(NS, "a", 1)
        cache.put(NS, "b", 2)
        cache.put(NS, "a", 10)
        assert len(cache) == 2
        assert cache.get(NS, "a") == 10
        assert cache.stats["evictions"] == 0

    def test_clear(self):
        cache = SharedPredictionCache(capacity=2)
        cache.put(NS, "a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SharedPredictionCache(capacity=0)


class TestCacheKey:
    WINDOW = np.arange(12.0).reshape(3, 4)

    def test_deterministic(self):
        assert prediction_cache_key(self.WINDOW, "v1") == prediction_cache_key(
            self.WINDOW.copy(), "v1"
        )

    def test_sensitive_to_data(self):
        other = self.WINDOW.copy()
        other[0, 0] += 1e-9
        assert prediction_cache_key(self.WINDOW, "v1") != prediction_cache_key(other, "v1")

    def test_sensitive_to_shape(self):
        assert prediction_cache_key(self.WINDOW, "v1") != prediction_cache_key(
            self.WINDOW.reshape(4, 3), "v1"
        )

    def test_sensitive_to_version_and_params(self):
        base = prediction_cache_key(self.WINDOW, "v1", num_samples=10)
        assert base != prediction_cache_key(self.WINDOW, "v2", num_samples=10)
        assert base != prediction_cache_key(self.WINDOW, "v1", num_samples=20)

    def test_param_order_irrelevant(self):
        assert prediction_cache_key(self.WINDOW, "v1", a=1, b=2) == prediction_cache_key(
            self.WINDOW, "v1", b=2, a=1
        )
