"""Serving from checkpoints and versioned hot-swapping of served models."""

import numpy as np
import pytest

from repro.api import Forecaster
from repro.core.inference import PredictionResult
from repro.data import SlidingWindowDataset, TrafficData, generate_traffic, train_val_test_split
from repro.graph import grid_network
from repro.serving import InferenceServer

NUM_NODES = 9
HISTORY = 4
HORIZON = 2

TRAINING = {
    "history": HISTORY, "horizon": HORIZON, "hidden_dim": 6, "embed_dim": 2,
    "epochs": 1, "batch_size": 64, "mc_samples": 2, "seed": 0,
}


@pytest.fixture(scope="module")
def fitted_and_windows():
    network = grid_network(3, 3)
    values = generate_traffic(network, 260, seed=3)
    traffic = TrafficData(name="serve-test", values=values, network=network)
    train, val, test = train_val_test_split(traffic)
    forecaster = Forecaster.from_spec({"method": "MVE", "training": TRAINING})
    forecaster.fit(train, val)
    windows = SlidingWindowDataset(
        test.slice_steps(0, 30), history=HISTORY, horizon=HORIZON
    ).arrays()[0]
    return forecaster, windows


@pytest.fixture(scope="module")
def checkpoint(fitted_and_windows, tmp_path_factory):
    forecaster, _ = fitted_and_windows
    directory = tmp_path_factory.mktemp("ckpt") / "mve"
    forecaster.save(directory)
    return directory


class TestFromCheckpoint:
    def test_serves_checkpointed_model(self, fitted_and_windows, checkpoint):
        forecaster, windows = fitted_and_windows
        direct = forecaster.predict(windows)
        with InferenceServer.from_checkpoint(checkpoint, cache_size=0) as server:
            results = server.predict_many(list(windows))
        served = PredictionResult.concatenate(results)
        assert np.array_equal(direct.mean, served.mean)
        assert np.array_equal(direct.aleatoric_var, served.aleatoric_var)

    def test_default_version_names_spec_and_directory(self, checkpoint):
        server = InferenceServer.from_checkpoint(checkpoint)
        assert server.model_version == "MVE-AGCRN@mve"

    def test_explicit_version_wins(self, checkpoint):
        server = InferenceServer.from_checkpoint(checkpoint, model_version="prod-7")
        assert server.model_version == "prod-7"

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            InferenceServer.from_checkpoint(tmp_path / "missing")

    def test_forecaster_deploys_onto_a_pool(self, fitted_and_windows, checkpoint):
        """Facade deploy + checkpoint-path deploy serve identical predictions."""
        forecaster, windows = fitted_and_windows
        server = InferenceServer(cache_size=0)
        deployment = forecaster.deploy(server, "live")
        assert deployment.version == "MVE-AGCRN"  # spec-derived default
        server.deploy("from-disk", checkpoint)     # checkpoint directory path
        with server:
            live = server.predict_many(list(windows[:4]))
            server.promote("from-disk")
            disk = server.predict_many(list(windows[:4]))
        for a, b in zip(live, disk):
            np.testing.assert_array_equal(a.mean, b.mean)


class TestHotSwap:
    def _constant_predictor(self, value):
        def predict(windows):
            shape = (windows.shape[0], HORIZON, NUM_NODES)
            return PredictionResult(
                mean=np.full(shape, float(value)),
                aleatoric_var=np.zeros(shape),
                epistemic_var=np.zeros(shape),
            )

        return predict

    def test_swap_changes_served_model_and_version(self, fitted_and_windows):
        _, windows = fitted_and_windows
        server = InferenceServer(self._constant_predictor(1.0), model_version="v1", cache_size=0)
        with server:
            before = server.predict_many(list(windows[:4]))
            previous = server.model_version
            server.deploy(server.pool.default_name, self._constant_predictor(2.0), version="v2")
            after = server.predict_many(list(windows[:4]))
        assert previous == "v1"
        assert server.model_version == "v2"
        assert all(np.all(r.mean == 1.0) for r in before)
        assert all(np.all(r.mean == 2.0) for r in after)

    def test_swap_accepts_forecaster_objects(self, fitted_and_windows):
        forecaster, windows = fitted_and_windows
        server = InferenceServer(self._constant_predictor(0.0), model_version="v1", cache_size=0)
        with server:
            server.deploy(server.pool.default_name, forecaster, version="v2")
            served = server.predict_many(list(windows[:3]))
        direct = forecaster.predict(windows[:3])
        assert np.array_equal(direct.mean, PredictionResult.concatenate(served).mean)

    def test_swap_rejects_non_predictors(self):
        server = InferenceServer(self._constant_predictor(0.0))
        with pytest.raises(TypeError, match="predict"):
            server.deploy(server.pool.default_name, object(), version="v2")

    def test_queued_requests_survive_a_swap(self, fitted_and_windows):
        """Requests submitted before a swap all resolve; none are dropped."""
        _, windows = fitted_and_windows
        server = InferenceServer(
            self._constant_predictor(1.0), model_version="v1",
            max_batch_size=4, max_wait_ms=20.0, cache_size=0,
        )
        with server:
            futures = [server.submit(window) for window in windows[:12]]
            server.deploy(server.pool.default_name, self._constant_predictor(2.0), version="v2")
            futures += [server.submit(window) for window in windows[12:24]]
            results = [future.result(timeout=30.0) for future in futures]
        assert len(results) == 24
        # Every request was answered by exactly one of the two versions.
        for result in results:
            value = result.mean.flat[0]
            assert value in (1.0, 2.0)
            assert np.all(result.mean == value)
        # The late submissions can only have seen the new model.
        assert all(np.all(r.mean == 2.0) for r in results[12:])

    def test_cache_is_version_namespaced(self, fitted_and_windows):
        """After a swap, cached v1 answers are never served for v2 requests."""
        _, windows = fitted_and_windows
        server = InferenceServer(
            self._constant_predictor(1.0), model_version="v1", cache_size=64
        )
        with server:
            first = server.predict_many(list(windows[:3]))
            server.deploy(server.pool.default_name, self._constant_predictor(2.0), version="v2")
            second = server.predict_many(list(windows[:3]))  # same inputs
        assert all(np.all(r.mean == 1.0) for r in first)
        assert all(np.all(r.mean == 2.0) for r in second)
