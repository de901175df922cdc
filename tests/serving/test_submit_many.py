"""Batch submission and pinned-deployment routing on the server."""

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.serving import InferenceServer, KeyRouter

HISTORY, NODES, HORIZON = 4, 3, 2


def _predictor(offset):
    def predict(windows):
        mean = np.repeat(windows[:, -1:, :], HORIZON, axis=1) + offset
        return PredictionResult(
            mean=mean,
            aleatoric_var=np.ones_like(mean),
            epistemic_var=np.zeros_like(mean),
        )

    return predict


def _windows(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(size=(HISTORY, NODES)) for _ in range(n)]


class TestSubmitMany:
    def test_results_align_with_inputs(self):
        with InferenceServer(_predictor(0.0), max_batch_size=16) as server:
            windows = _windows(10)
            futures = server.submit_many(windows)
            for window, future in zip(windows, futures):
                result = future.result(timeout=10.0)
                np.testing.assert_allclose(
                    result.mean[0], np.repeat(window[-1:], HORIZON, axis=0)
                )

    def test_batch_submit_coalesces_into_few_model_calls(self):
        calls = []

        def predict(windows):
            calls.append(windows.shape[0])
            return _predictor(0.0)(windows)

        with InferenceServer(predict, max_batch_size=64, cache_size=0) as server:
            futures = server.submit_many(_windows(32))
            for future in futures:
                future.result(timeout=10.0)
        assert sum(calls) == 32
        assert len(calls) <= 4  # far fewer forwards than windows

    def test_one_call_makes_full_batches_whatever_the_wait(self):
        """A call's windows are one group: cut at max_batch_size, never split
        by the dispatcher's wait window closing mid-enqueue."""
        calls = []

        def predict(windows):
            calls.append(windows.shape[0])
            return _predictor(0.0)(windows)

        with InferenceServer(
            predict, max_batch_size=64, max_wait_ms=0.0, cache_size=0, num_workers=1
        ) as server:
            for future in server.submit_many(_windows(200)):
                future.result(timeout=10.0)
        assert calls == [64, 64, 64, 8]

    def test_keys_route_through_a_key_router(self):
        router = KeyRouter({"north": "n", "south": "s"})
        with InferenceServer(router=router, cache_size=0) as server:
            server.deploy("n", _predictor(100.0))
            server.deploy("s", _predictor(-100.0))
            windows = _windows(4)
            futures = server.submit_many(
                windows, keys=["north", "south", "north", "south"]
            )
            results = [future.result(timeout=10.0) for future in futures]
        assert results[0].mean.mean() > 50 and results[2].mean.mean() > 50
        assert results[1].mean.mean() < -50 and results[3].mean.mean() < -50

    def test_pinned_deployments_bypass_the_router(self):
        router = KeyRouter({"north": "n"})
        with InferenceServer(router=router, cache_size=0) as server:
            server.deploy("n", _predictor(100.0))
            server.deploy("candidate", _predictor(-100.0))
            futures = server.submit_many(
                _windows(2),
                keys=["north", "north"],
                deployments=[None, "candidate"],
            )
            routed, pinned = [future.result(timeout=10.0) for future in futures]
        assert routed.mean.mean() > 50
        assert pinned.mean.mean() < -50

    def test_single_submit_supports_deployment_pin(self):
        with InferenceServer(_predictor(0.0), cache_size=0) as server:
            server.deploy("alt", _predictor(7.0))
            window = _windows(1)[0]
            result = server.submit(window, deployment="alt").result(timeout=10.0)
        np.testing.assert_allclose(
            result.mean[0] - np.repeat(window[-1:], HORIZON, axis=0), 7.0
        )

    def test_misaligned_keys_or_deployments_rejected(self):
        with InferenceServer(_predictor(0.0)) as server:
            with pytest.raises(ValueError, match="keys must align"):
                server.submit_many(_windows(2), keys=["a"])
            with pytest.raises(ValueError, match="deployments must align"):
                server.submit_many(_windows(2), deployments=["a"])

    def test_bad_window_shape_rejected(self):
        with InferenceServer(_predictor(0.0)) as server:
            with pytest.raises(ValueError, match="submit_many expects"):
                server.submit_many([np.zeros((2, HISTORY, NODES))])

    def test_submit_many_on_stopped_server_raises(self):
        server = InferenceServer(_predictor(0.0))
        with pytest.raises(RuntimeError, match="not running"):
            server.submit_many(_windows(1))


class TestKeyRouterSetRoute:
    def test_set_route_re_points_only_that_key(self):
        router = KeyRouter({"a": "m1", "b": "m2"})
        router.set_route("a", "m3")
        assert router.route(None, key="a").primary == "m3"
        assert router.route(None, key="b").primary == "m2"

    def test_set_routes_bulk_update(self):
        router = KeyRouter({})
        router.set_routes({"a": "m1", "b": "m1"})
        assert router.route(None, key="a").primary == "m1"
        assert router.route(None, key="b").primary == "m1"
        assert router.route(None, key="c").primary is None
