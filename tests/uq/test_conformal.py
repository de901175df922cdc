"""The locally-weighted conformal method: its quantile, intervals and state."""

import numpy as np
import pytest

from repro.api import Forecaster
from repro.core.trainer import TrainingConfig
from repro.data import TrafficData, generate_traffic, train_val_test_split
from repro.graph import grid_network
from repro.metrics import Z_95
from repro.uq.conformal import LocallyWeightedConformal
from repro.uq.mve import MVE

NUM_NODES = 9
TRAINING = {
    "history": 4, "horizon": 3, "hidden_dim": 6, "embed_dim": 2,
    "epochs": 1, "batch_size": 64, "seed": 0,
}


@pytest.fixture(scope="module")
def splits():
    network = grid_network(3, 3)
    values = generate_traffic(network, 300, seed=11)
    traffic = TrafficData(name="conformal-test", values=values, network=network)
    return train_val_test_split(traffic)


@pytest.fixture(scope="module")
def fitted(splits):
    train, val, _ = splits
    method = LocallyWeightedConformal(NUM_NODES, config=TrainingConfig(**TRAINING))
    return method.fit(train, val)


class TestConformalQuantile:
    def test_quantile_is_a_positive_float(self, fitted):
        assert isinstance(fitted.conformal_quantile, float)
        assert fitted.conformal_quantile > 0.0

    def test_predict_scales_sigma_by_the_quantile(self, fitted, splits):
        _, _, test = splits
        result, _ = fitted.predict_on(test.slice_steps(0, 30))
        base = MVE.predict(fitted, fitted._windows(test.slice_steps(0, 30))[0])
        # Interval half-width must equal q * sigma(x).
        np.testing.assert_allclose(
            result.std * Z_95, fitted.conformal_quantile * base.aleatoric_std, rtol=1e-10
        )

    def test_quantile_matches_manual_computation(self, fitted, splits):
        """Recompute the quantile directly from the validation scores."""
        _, val, _ = splits
        inputs, targets = fitted._windows(val)
        base = MVE.predict(fitted, inputs)
        scores = np.abs(targets - base.mean) / np.maximum(base.aleatoric_std, 1e-6)
        n = scores.size
        level = min(np.ceil((n + 1) * 0.95) / n, 1.0)
        assert fitted.conformal_quantile == pytest.approx(np.quantile(scores.reshape(-1), level))


class TestConformalState:
    def test_get_set_state_roundtrip(self, fitted):
        state = fitted.get_state()
        clone = LocallyWeightedConformal(NUM_NODES, config=TrainingConfig(**TRAINING))
        clone.set_state(state)
        assert clone.conformal_quantile == fitted.conformal_quantile

    def test_directory_checkpoint_roundtrip(self, splits, tmp_path):
        """The quantile round-trips through Forecaster directory checkpoints."""
        train, val, test = splits
        forecaster = Forecaster.from_spec(
            {"method": "Conformal", "training": TRAINING}
        ).fit(train, val)
        forecaster.save(tmp_path / "ckpt")
        restored = Forecaster.load(tmp_path / "ckpt")
        assert restored.method.conformal_quantile == forecaster.method.conformal_quantile
        windows = forecaster.method._windows(test.slice_steps(0, 20))[0]
        direct = forecaster.predict(windows)
        reloaded = restored.predict(windows)
        np.testing.assert_array_equal(direct.mean, reloaded.mean)
        np.testing.assert_array_equal(direct.total_var, reloaded.total_var)
