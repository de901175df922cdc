"""ModelPool / Deployment semantics and the routing policies."""

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.serving import (
    InferenceServer,
    KeyRouter,
    ModelPool,
    RouteDecision,
    Router,
    ShadowRouter,
    SharedPredictionCache,
    TrafficSplitRouter,
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
    return np.random.default_rng(seed).uniform(0.0, 10.0, size=(count, HISTORY, NODES))


class TestModelPool:
    def test_first_deployment_becomes_default(self):
        pool = ModelPool()
        pool.deploy("a", _constant(1))
        pool.deploy("b", _constant(2))
        assert pool.default_name == "a"
        assert pool.resolve(None).name == "a"
        assert pool.resolve("b").name == "b"

    def test_auto_versions_count_up_per_name(self):
        pool = ModelPool()
        assert pool.deploy("a", _constant(1)).version == "v0"
        assert pool.deploy("a", _constant(2)).version == "v1"
        assert pool.deploy("b", _constant(3)).version == "v0"

    def test_redeploy_drops_old_cache_namespace(self):
        cache = SharedPredictionCache(capacity=16)
        pool = ModelPool(cache=cache)
        deployment = pool.deploy("a", _constant(1), version="v1")
        cache.put(deployment.namespace, "k", "value")
        assert cache.namespace_sizes() == {"a@v1": 1}
        pool.deploy("a", _constant(2), version="v2")
        assert cache.namespace_sizes() == {}

    def test_promote_and_rollback_repoint_default(self):
        pool = ModelPool()
        pool.deploy("a", _constant(1))
        pool.deploy("b", _constant(2))
        assert pool.promote("b") == "a"
        assert pool.default_name == "b"
        assert pool.rollback() == "a"
        assert pool.default_name == "a"

    def test_rollback_with_name_retires_the_deployment(self):
        pool = ModelPool()
        pool.deploy("a", _constant(1))
        pool.deploy("cand", _constant(2))
        pool.promote("cand")
        assert pool.rollback("cand") == "a"
        assert "cand" not in pool

    def test_rollback_name_must_match_default(self):
        pool = ModelPool()
        pool.deploy("a", _constant(1))
        pool.deploy("b", _constant(2))
        pool.promote("b")
        with pytest.raises(ValueError, match="does not match"):
            pool.rollback("a")

    def test_rollback_without_history_raises(self):
        pool = ModelPool()
        pool.deploy("a", _constant(1))
        with pytest.raises(RuntimeError, match="no previous route"):
            pool.rollback()

    def test_cannot_undeploy_the_default(self):
        pool = ModelPool()
        pool.deploy("a", _constant(1))
        with pytest.raises(ValueError, match="default route"):
            pool.undeploy("a")

    def test_promote_unknown_name_raises(self):
        pool = ModelPool()
        pool.deploy("a", _constant(1))
        with pytest.raises(KeyError):
            pool.promote("missing")

    def test_deploy_rejects_non_predictors(self):
        pool = ModelPool()
        with pytest.raises(TypeError, match="predict"):
            pool.deploy("a", object())


class TestRouters:
    def test_base_router_goes_to_default(self):
        decision = Router().route(np.zeros((HISTORY, NODES)))
        assert decision == RouteDecision(primary=None, shadows=())

    def test_key_router_maps_keys(self):
        router = KeyRouter({"north": "regional"}, default="global")
        window = np.zeros((HISTORY, NODES))
        assert router.route(window, key="north").primary == "regional"
        assert router.route(window, key="south").primary == "global"
        assert router.route(window).primary == "global"

    def test_key_router_unhashable_key_falls_through(self):
        router = KeyRouter({"north": "regional"}, default=None)
        assert router.route(np.zeros((HISTORY, NODES)), key=["north"]).primary is None

    def test_traffic_split_tracks_weights_exactly(self):
        router = TrafficSplitRouter({"a": 0.75, "b": 0.25})
        window = np.zeros((HISTORY, NODES))
        picks = [router.route(window).primary for _ in range(400)]
        assert picks.count("a") == 300
        assert picks.count("b") == 100
        assert router.realized_shares == {"a": 0.75, "b": 0.25}

    def test_traffic_split_validates_weights(self):
        with pytest.raises(ValueError):
            TrafficSplitRouter({})
        with pytest.raises(ValueError):
            TrafficSplitRouter({"a": -1.0, "b": 2.0})
        with pytest.raises(ValueError):
            TrafficSplitRouter({"a": 0.0})

    def test_traffic_split_inner_router_keeps_keyed_routes(self):
        """The non-canary share delegates to the wrapped router instead of
        flattening everything onto the pool default."""
        router = TrafficSplitRouter(
            {None: 0.75, "cand": 0.25}, inner=KeyRouter({"n": "regional"})
        )
        window = np.zeros((HISTORY, NODES))
        picks = [router.route(window, key="n").primary for _ in range(100)]
        assert picks.count("cand") == 25
        assert picks.count("regional") == 75  # keyed routing survives the split

    def test_shadow_router_mirrors_without_changing_primary(self):
        router = ShadowRouter(shadows=["cand"], inner=KeyRouter({"n": "regional"}))
        window = np.zeros((HISTORY, NODES))
        decision = router.route(window, key="n")
        assert decision.primary == "regional"
        assert decision.shadows == ("cand",)

    def test_shadow_router_skips_self_mirror(self):
        router = ShadowRouter(shadows=["regional"], inner=KeyRouter({"n": "regional"}))
        assert router.route(np.zeros((HISTORY, NODES)), key="n").shadows == ()


class TestServerRouting:
    def test_key_routed_multi_model_serving(self):
        server = InferenceServer(router=KeyRouter({"n": "north", "s": "south"}), cache_size=0)
        server.deploy("north", _constant(1))
        server.deploy("south", _constant(2))
        windows = _windows(6)
        with server:
            results = server.predict_many(windows, keys=["n", "s", "n", "s", None, "n"])
        values = [float(result.mean.flat[0]) for result in results]
        # Unkeyed request (None) follows the default route = first deployment.
        assert values == [1.0, 2.0, 1.0, 2.0, 1.0, 1.0]

    def test_unrouted_requests_follow_promotions(self):
        server = InferenceServer(cache_size=0)
        server.deploy("blue", _constant(1))
        server.deploy("green", _constant(2))
        windows = _windows(4)
        with server:
            before = server.predict_many(windows)
            assert server.promote("green") == "blue"
            after = server.predict_many(windows)
            assert server.rollback() == "blue"
            rolled = server.predict_many(windows)
        assert {float(r.mean.flat[0]) for r in before} == {1.0}
        assert {float(r.mean.flat[0]) for r in after} == {2.0}
        assert {float(r.mean.flat[0]) for r in rolled} == {1.0}
        assert server.stats["promotions"] == 1
        assert server.stats["rollbacks"] == 1

    def test_requests_to_retired_deployment_fall_back_to_default(self):
        server = InferenceServer(router=KeyRouter({"x": "gone"}, default=None), cache_size=0)
        server.deploy("main", _constant(7))
        windows = _windows(3)
        with server:
            results = server.predict_many(windows, keys=["x", "x", "x"])
        assert {float(r.mean.flat[0]) for r in results} == {7.0}
        assert server.stats["route_fallbacks"] >= 1

    def test_shadow_deployment_sees_traffic_but_not_clients(self):
        server = InferenceServer(router=ShadowRouter(shadows=["cand"]), cache_size=64)
        server.deploy("main", _constant(1))
        server.deploy("cand", _constant(5))
        windows = _windows(8)
        with server:
            results = server.predict_many(windows)
        assert {float(r.mean.flat[0]) for r in results} == {1.0}
        stats = server.stats["deployments"]["cand"]
        assert stats["requests_served"] == 0
        assert stats["shadow_windows"] == 8
        assert stats["shadow_divergence"] == pytest.approx(4.0)

    def test_serve_method_versions_are_stable_counters(self):
        from repro.serving.server import serve_method

        class _Method:
            name = "MCDO"

            def predict(self, windows):
                return _constant(0)(windows)

        first = serve_method(_Method()).model_version
        second = serve_method(_Method()).model_version
        assert first.startswith("MCDO-")
        int(first.split("-", 1)[1])  # numeric counter, not an id() hex
        assert first != second
