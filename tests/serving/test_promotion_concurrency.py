"""Promotion, rollback and shadow mirroring under concurrent load.

The contract under test: re-pointing the default route (promote/rollback,
swap) never drops a request and never mixes versions *within* one response;
shadow mirroring never leaks into client responses; and the shared cache
budget cannot be monopolized by one hot deployment.
"""

import threading

import numpy as np
import pytest

from repro.analysis import lockwatch
from repro.core.inference import PredictionResult
from repro.serving import (
    InferenceServer,
    ShadowRouter,
    SharedPredictionCache,
)

HISTORY, NODES, HORIZON = 4, 3, 2


def _constant(value):
    def predict(windows):
        mean = np.full((windows.shape[0], HORIZON, windows.shape[2]), float(value))
        return PredictionResult(
            mean=mean,
            aleatoric_var=np.ones_like(mean),
            epistemic_var=np.zeros_like(mean),
        )

    return predict


def _windows(count, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 100.0, size=(count, HISTORY, NODES))


class TestPromoteRollbackUnderLoad:
    def test_promotion_storm_drops_and_mixes_nothing(self):
        """Clients hammering the default route while promote/rollback cycle.

        Runs under the lock-order sanitizer: every lock the server stack
        constructs is tracked, and any promote-vs-dispatch ordering cycle
        fails the test even if this run's interleaving never deadlocked.
        """
        with lockwatch.watching(raise_on_cycle=False) as watch:
            server = InferenceServer(
                max_batch_size=4, max_wait_ms=1.0, cache_size=256, num_workers=4
            )
            generations = 5
            for generation in range(generations):
                server.deploy(f"gen-{generation}", _constant(generation))
            windows = _windows(32)
            client_values = []
            errors = []
            stop = threading.Event()

            def client():
                try:
                    while not stop.is_set():
                        for result in server.predict_many(windows[:8], timeout=30.0):
                            # One response must be internally consistent: a single
                            # generation, never a blend of two.
                            flat = result.mean.ravel()
                            assert np.all(flat == flat[0])
                            client_values.append(float(flat[0]))
                except Exception as error:  # pragma: no cover - failure reporting
                    errors.append(error)

            with server:
                threads = [threading.Thread(target=client, daemon=True) for _ in range(3)]
                for thread in threads:
                    thread.start()
                for generation in range(1, generations):
                    server.promote(f"gen-{generation}")
                for _ in range(generations - 1):
                    server.rollback()
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                final = server.predict_many(windows, timeout=30.0)

        watch.assert_acyclic()
        assert errors == []
        # After the rollbacks the default route is back at gen-0.
        assert {float(result.mean.flat[0]) for result in final} == {0.0}
        # Concurrent clients only ever saw values a real generation produced.
        assert set(client_values) <= {float(g) for g in range(generations)}
        assert server.stats["promotions"] == generations - 1
        assert server.stats["rollbacks"] == generations - 1

    def test_in_flight_batches_survive_promotion(self):
        """Requests queued before a promote resolve on a consistent model."""
        server = InferenceServer(
            max_batch_size=4, max_wait_ms=20.0, cache_size=0
        )
        server.deploy("old", _constant(1))
        server.deploy("new", _constant(2))
        windows = _windows(24, seed=2)
        with server:
            futures = [server.submit(window) for window in windows[:12]]
            server.promote("new")
            futures += [server.submit(window) for window in windows[12:]]
            results = [future.result(timeout=30.0) for future in futures]
        assert len(results) == 24
        values = [float(result.mean.flat[0]) for result in results]
        assert set(values) <= {1.0, 2.0}
        # Post-promotion submissions can only have seen the new deployment.
        assert all(value == 2.0 for value in values[12:])


class TestShadowUnderLoad:
    def test_shadow_mirror_never_reaches_clients(self):
        # Shadow dispatch acquires pool/cache/stats locks on a second path;
        # the sanitizer proves that path agrees with the primary's order.
        with lockwatch.watching(raise_on_cycle=False) as watch:
            server = InferenceServer(
                router=ShadowRouter(shadows=["cand"]),
                max_batch_size=8, max_wait_ms=1.0, cache_size=512, num_workers=4,
            )
            server.deploy("main", _constant(1))
            server.deploy("cand", _constant(9))
            errors = []

            def client(seed):
                try:
                    for result in server.predict_many(_windows(40, seed=seed), timeout=30.0):
                        assert float(result.mean.flat[0]) == 1.0
                except Exception as error:  # pragma: no cover - failure reporting
                    errors.append(error)

            with server:
                threads = [
                    threading.Thread(target=client, args=(seed,), daemon=True)
                    for seed in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
        watch.assert_acyclic()
        assert errors == []
        assert server.stats["requests_served"] == 160
        stats = server.stats["deployments"]["cand"]
        assert stats["requests_served"] == 0
        assert stats["shadow_windows"] > 0
        assert stats["shadow_divergence"] == pytest.approx(8.0)
        assert server.stats["shadow_errors"] == 0

    def test_one_broken_deployment_does_not_poison_the_batch(self):
        """Per-deployment failure domains: healthy routes resolve even when a
        co-batched deployment's model raises."""
        from repro.serving import KeyRouter

        def broken(windows):
            raise RuntimeError("bad checkpoint")

        server = InferenceServer(
            router=KeyRouter({"bad": "broken"}, default="healthy"),
            max_batch_size=16, max_wait_ms=20.0, cache_size=0,
        )
        server.deploy("healthy", _constant(1))
        server.deploy("broken", broken)
        windows = _windows(8, seed=9)
        with server:
            futures = [
                server.submit(window, key="bad" if index % 2 else None)
                for index, window in enumerate(windows)
            ]
            healthy = [f.result(timeout=30.0) for f in futures[::2]]
            for future in futures[1::2]:
                with pytest.raises(RuntimeError, match="bad checkpoint"):
                    future.result(timeout=30.0)
        assert {float(r.mean.flat[0]) for r in healthy} == {1.0}

    def test_failing_shadow_is_invisible_to_clients(self):
        def broken(windows):
            raise RuntimeError("shadow model exploded")

        server = InferenceServer(
            router=ShadowRouter(shadows=["cand"]), max_wait_ms=1.0, cache_size=0
        )
        server.deploy("main", _constant(1))
        server.deploy("cand", broken)
        with server:
            results = server.predict_many(_windows(8), timeout=30.0)
        assert {float(result.mean.flat[0]) for result in results} == {1.0}
        assert server.stats["shadow_errors"] >= 1


class TestCacheBudgetFairness:
    def test_hot_namespace_cannot_evict_quiet_one(self):
        cache = SharedPredictionCache(capacity=8)
        for index in range(4):
            cache.put("quiet@v0", f"q{index}", index)
        # A hot deployment floods far past the global budget.
        for index in range(100):
            cache.put("hot@v0", f"h{index}", index)
        sizes = cache.namespace_sizes()
        # Fair-share eviction: the quiet namespace keeps its working set; the
        # hot one is capped at the remaining budget.
        assert sizes["quiet@v0"] == 4
        assert sizes["hot@v0"] == 4
        assert len(cache) == 8
        assert cache.stats["evictions"] == 96

    def test_eviction_balances_equal_competitors(self):
        cache = SharedPredictionCache(capacity=9)
        for namespace in ("a", "b", "c"):
            for index in range(50):
                cache.put(namespace, f"{namespace}{index}", index)
        assert set(cache.namespace_sizes().values()) == {3}

    def test_server_budget_shared_across_deployments(self):
        from repro.serving import KeyRouter

        server = InferenceServer(
            router=KeyRouter({"a": "a", "b": "b"}),
            max_batch_size=8, max_wait_ms=1.0, cache_size=16,
        )
        server.deploy("a", _constant(1))
        server.deploy("b", _constant(2))
        windows = list(_windows(24, seed=5))
        with server:
            server.predict_many(windows, keys=["a"] * 24)
            server.predict_many(windows, keys=["b"] * 24)
        sizes = server.cache.namespace_sizes()
        assert sum(sizes.values()) <= 16
        # Both deployments hold a share of the budget; neither was flushed.
        assert set(sizes) == {"a@v0", "b@v0"}
        assert all(size > 0 for size in sizes.values())

    def test_dropped_namespace_frees_budget_immediately(self):
        cache = SharedPredictionCache(capacity=8)
        for index in range(8):
            cache.put("old@v0", f"k{index}", index)
        assert cache.drop_namespace("old@v0") == 8
        assert len(cache) == 0
        for index in range(8):
            cache.put("new@v1", f"k{index}", index)
        assert cache.stats["evictions"] == 0
