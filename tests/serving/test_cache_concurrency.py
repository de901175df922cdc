"""The shared prediction cache and InferenceServer under concurrent hot-swap storms.

A hot swap re-deploys the default deployment under a new version
(``server.deploy(server.pool.default_name, model, version=...)``).

The invariants being hammered:

* version-namespaced keys mean a request processed after a swap can never be
  answered from a previous version's cache entry;
* the cache's hit/miss/eviction counters stay mutually consistent no matter
  how many threads interleave.
"""

import threading

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.serving import InferenceServer, SharedPredictionCache, prediction_cache_key

SHAPE = (1, 2, 3)


def _constant(value):
    def predict(windows):
        shape = (windows.shape[0],) + SHAPE[1:]
        return PredictionResult(
            mean=np.full(shape, float(value)),
            aleatoric_var=np.zeros(shape),
            epistemic_var=np.zeros(shape),
        )

    return predict


class TestSharedPredictionCacheThreaded:
    def test_stats_stay_consistent_across_threads(self):
        cache = SharedPredictionCache(capacity=64)
        num_threads, per_thread = 8, 500
        gets = [0] * num_threads
        puts = [0] * num_threads
        errors = []

        def worker(tid):
            rng = np.random.default_rng(tid)
            try:
                for i in range(per_thread):
                    namespace, key = f"v{rng.integers(4)}", str(rng.integers(100))
                    gets[tid] += 1
                    if cache.get(namespace, key) is None:
                        cache.put(namespace, key, tid * per_thread + i)
                        puts[tid] += 1
            except Exception as error:  # surfaced at the end
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        stats = cache.stats
        assert stats["hits"] + stats["misses"] == sum(gets)
        assert stats["size"] <= stats["capacity"] == 64
        assert len(cache) == stats["size"]
        # Evictions can never exceed insertions beyond the retained entries.
        assert stats["evictions"] <= sum(puts) - stats["size"] + num_threads
        assert stats["evictions"] >= 0

    def test_version_namespacing_in_key(self):
        window = np.arange(6.0).reshape(2, 3)
        assert prediction_cache_key(window, "v1") != prediction_cache_key(window, "v2")
        assert prediction_cache_key(window, "v1") == prediction_cache_key(window.copy(), "v1")


class TestServerCacheUnderSwap:
    def _windows(self, count, seed=0):
        rng = np.random.default_rng(seed)
        # A small pool of distinct windows so the cache sees heavy re-use.
        pool = rng.uniform(0.0, 100.0, size=(8, 4, 3))
        return [pool[i % len(pool)] for i in range(count)]

    def test_no_stale_results_after_concurrent_swaps(self):
        server = InferenceServer(
            _constant(0), model_version="gen-0", max_batch_size=4,
            max_wait_ms=1.0, cache_size=256, num_workers=4,
        )
        generations = 6
        windows = self._windows(64)
        client_results = []
        errors = []
        stop = threading.Event()

        def client():
            try:
                while not stop.is_set():
                    for result in server.predict_many(windows[:16], timeout=30.0):
                        client_results.append(float(result.mean.flat[0]))
            except Exception as error:
                errors.append(error)

        with server:
            threads = [threading.Thread(target=client, daemon=True) for _ in range(3)]
            for thread in threads:
                thread.start()
            for generation in range(1, generations):
                server.deploy(
                    server.pool.default_name, _constant(generation), version=f"gen-{generation}"
                )
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)

            # After the last swap every *new* request must see the newest
            # model: a version-namespaced cache cannot serve gen<N entries.
            final = server.predict_many(windows, timeout=30.0)

        assert errors == []
        final_values = {float(result.mean.flat[0]) for result in final}
        assert final_values == {float(generations - 1)}
        # Concurrent clients only ever saw values some generation produced.
        assert set(client_results) <= {float(g) for g in range(generations)}
        assert server.model_version == f"gen-{generations - 1}"

    def test_eviction_stats_consistent_with_tiny_cache_during_swaps(self):
        server = InferenceServer(
            _constant(1), model_version="a", max_batch_size=4,
            max_wait_ms=1.0, cache_size=4, num_workers=2,
        )
        windows = self._windows(40, seed=3)
        with server:
            server.predict_many(windows, timeout=30.0)
            server.deploy(server.pool.default_name, _constant(2), version="b")
            server.predict_many(windows, timeout=30.0)
            stats = server.stats
        cache_stats = server.cache.stats
        assert cache_stats["size"] <= 4
        assert cache_stats["hits"] + cache_stats["misses"] > 0
        assert cache_stats["evictions"] >= 0
        assert stats["requests_served"] == 80
