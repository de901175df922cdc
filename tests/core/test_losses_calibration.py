"""Tests for the DeepSTUQ losses, temperature calibration and MC inference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    PredictionResult,
    TemperatureCalibrator,
    combined_loss,
    deterministic_forecast,
    heteroscedastic_gaussian_loss,
    monte_carlo_forecast,
    point_l1_loss,
    quantile_loss,
)
from repro.data.scalers import StandardScaler
from repro.models import AGCRN
from repro.tensor import Tensor, gradcheck


class TestLosses:
    def test_heteroscedastic_loss_minimized_at_truth(self):
        target = Tensor(np.zeros(10))
        good = heteroscedastic_gaussian_loss(Tensor(np.zeros(10)), Tensor(np.zeros(10)), target)
        bad_mean = heteroscedastic_gaussian_loss(Tensor(np.ones(10) * 3), Tensor(np.zeros(10)), target)
        assert bad_mean.item() > good.item()

    def test_heteroscedastic_loss_learns_variance(self):
        """For a fixed wrong mean, larger predicted variance lowers the loss."""
        target = Tensor(np.full(10, 5.0))
        mean = Tensor(np.zeros(10))
        small_var = heteroscedastic_gaussian_loss(mean, Tensor(np.zeros(10)), target)
        large_var = heteroscedastic_gaussian_loss(mean, Tensor(np.full(10, 3.0)), target)
        assert large_var.item() < small_var.item()

    def test_combined_loss_lambda_validation(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            combined_loss(x, x, x, lambda_weight=0.0)
        with pytest.raises(ValueError):
            combined_loss(x, x, x, lambda_weight=1.5)

    def test_combined_loss_interpolates(self):
        target = Tensor(np.zeros(5))
        mean = Tensor(np.full(5, 2.0))
        log_var = Tensor(np.zeros(5))
        pure_nll = combined_loss(mean, log_var, target, lambda_weight=1.0).item()
        mostly_l1 = combined_loss(mean, log_var, target, lambda_weight=0.01).item()
        expected_nll = heteroscedastic_gaussian_loss(mean, log_var, target).item()
        assert pure_nll == pytest.approx(expected_nll)
        assert mostly_l1 == pytest.approx(0.01 * expected_nll + 0.99 * 2.0, rel=1e-6)

    def test_combined_loss_gradcheck(self):
        rng = np.random.default_rng(0)
        mean = Tensor(rng.normal(size=6), requires_grad=True)
        log_var = Tensor(rng.normal(size=6), requires_grad=True)
        target = Tensor(rng.normal(size=6))
        assert gradcheck(lambda m, lv: combined_loss(m, lv, target, 0.3), [mean, log_var])

    def test_point_l1(self):
        assert point_l1_loss(Tensor([1.0, -1.0]), Tensor([0.0, 0.0])).item() == pytest.approx(1.0)

    def test_quantile_loss_mismatched_heads(self):
        outputs = {"lower": Tensor([0.0]), "upper": Tensor([1.0])}
        with pytest.raises(ValueError):
            quantile_loss(outputs, Tensor([0.5]), {"lower": 0.025})

    def test_quantile_loss_value(self):
        outputs = {"mean": Tensor([0.0])}
        loss = quantile_loss(outputs, Tensor([1.0]), {"mean": 0.5})
        assert loss.item() == pytest.approx(0.5)


class TestTemperatureCalibrator:
    def _predictions(self, scale, n=4000, seed=0):
        """Predictions whose claimed std is `scale`x the true residual std."""
        rng = np.random.default_rng(seed)
        mean = rng.uniform(0, 100, size=n)
        true_std = 5.0
        target = mean + rng.normal(scale=true_std, size=n)
        variance = np.full(n, (true_std * scale) ** 2)
        return target, mean, variance

    def test_closed_form_recovers_overconfidence(self):
        target, mean, variance = self._predictions(scale=0.5)
        t = TemperatureCalibrator.closed_form_temperature(target, mean, variance)
        assert t == pytest.approx(0.5, rel=0.05)

    def test_closed_form_recovers_underconfidence(self):
        target, mean, variance = self._predictions(scale=2.0)
        t = TemperatureCalibrator.closed_form_temperature(target, mean, variance)
        assert t == pytest.approx(2.0, rel=0.05)

    def test_lbfgs_matches_closed_form(self):
        target, mean, variance = self._predictions(scale=1.7)
        calibrator = TemperatureCalibrator()
        fitted = calibrator.fit(target, mean, variance, use_lbfgs=True)
        closed = calibrator.closed_form_temperature(target, mean, variance)
        assert fitted == pytest.approx(closed, rel=1e-3)

    def test_calibration_fixes_variance_scale(self):
        target, mean, variance = self._predictions(scale=3.0)
        calibrator = TemperatureCalibrator()
        calibrator.fit(target, mean, variance)
        calibrated = calibrator.calibrate_variance(variance)
        empirical = np.mean((target - mean) ** 2)
        assert np.mean(calibrated) == pytest.approx(empirical, rel=0.1)

    def test_calibrate_variance_divides_by_the_squared_temperature(self):
        calibrator = TemperatureCalibrator()
        calibrator.temperature = 2.0
        assert calibrator.calibrate_variance(np.array([16.0]))[0] == pytest.approx(4.0)

    def test_objective_gradient_matches_finite_difference(self):
        target, mean, variance = self._predictions(scale=1.3, n=500)
        calibrator = TemperatureCalibrator()
        t = 1.234
        value, gradient = calibrator.objective(t, target, mean, variance)
        eps = 1e-5
        plus, _ = calibrator.objective(t + eps, target, mean, variance)
        minus, _ = calibrator.objective(t - eps, target, mean, variance)
        assert gradient == pytest.approx((plus - minus) / (2 * eps), rel=1e-4)

    def test_well_calibrated_gives_temperature_near_one(self):
        target, mean, variance = self._predictions(scale=1.0)
        t = TemperatureCalibrator().fit(target, mean, variance)
        assert t == pytest.approx(1.0, abs=0.05)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TemperatureCalibrator().fit(np.zeros(3), np.zeros(4), np.ones(3))

    def test_invalid_max_iter(self):
        with pytest.raises(ValueError):
            TemperatureCalibrator(max_iter=0)

    @given(st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_closed_form_property(self, scale):
        target, mean, variance = self._predictions(scale=scale, n=3000, seed=7)
        t = TemperatureCalibrator.closed_form_temperature(target, mean, variance)
        assert t == pytest.approx(scale, rel=0.1)


class TestPredictionResultAndInference:
    def _result(self):
        mean = np.full((4, 3, 2), 100.0)
        return PredictionResult(
            mean=mean, aleatoric_var=np.full_like(mean, 9.0), epistemic_var=np.full_like(mean, 16.0)
        )

    def test_total_variance_decomposition(self):
        result = self._result()
        assert np.allclose(result.total_var, 25.0)
        assert np.allclose(result.std, 5.0)
        assert np.allclose(result.aleatoric_std, 3.0)
        assert np.allclose(result.epistemic_std, 4.0)

    def test_interval(self):
        lower, upper = self._result().interval()
        assert np.allclose(upper - lower, 2 * 1.96 * 5.0, atol=0.01)

    def test_replace_interval_std(self):
        replaced = self._result().replace_interval_std(np.full((4, 3, 2), 2.0))
        assert np.allclose(replaced.total_var, 4.0)
        assert np.allclose(replaced.epistemic_var, 0.0)

    def _tiny_model_and_inputs(self):
        rng = np.random.default_rng(0)
        model = AGCRN(
            num_nodes=4, history=5, horizon=3, hidden_dim=4, embed_dim=2,
            encoder_dropout=0.2, decoder_dropout=0.2,
            heads=("mean", "log_var"), rng=rng,
        )
        scaler = StandardScaler().fit(np.array([0.0, 100.0]))
        inputs = rng.uniform(-1, 1, size=(6, 5, 4))
        return model, scaler, inputs

    def test_deterministic_forecast_shapes_and_zero_epistemic(self):
        model, scaler, inputs = self._tiny_model_and_inputs()
        result = deterministic_forecast(model, inputs, scaler)
        assert result.mean.shape == (6, 3, 4)
        assert np.allclose(result.epistemic_var, 0.0)
        assert np.all(result.aleatoric_var > 0.0)

    def test_deterministic_forecast_is_repeatable(self):
        model, scaler, inputs = self._tiny_model_and_inputs()
        a = deterministic_forecast(model, inputs, scaler)
        b = deterministic_forecast(model, inputs, scaler)
        assert np.allclose(a.mean, b.mean)

    def test_monte_carlo_forecast_decomposes_uncertainty(self):
        model, scaler, inputs = self._tiny_model_and_inputs()
        result = monte_carlo_forecast(
            model, inputs, scaler, num_samples=5, rng=np.random.default_rng(1)
        )
        assert result.mean.shape == (6, 3, 4)
        assert np.all(result.aleatoric_var > 0.0)
        assert result.epistemic_var.mean() > 0.0

    def test_monte_carlo_reproducible_with_seed(self):
        model, scaler, inputs = self._tiny_model_and_inputs()
        a = monte_carlo_forecast(model, inputs, scaler, num_samples=3, rng=np.random.default_rng(5))
        b = monte_carlo_forecast(model, inputs, scaler, num_samples=3, rng=np.random.default_rng(5))
        assert np.allclose(a.mean, b.mean)
        assert np.allclose(a.total_var, b.total_var)

    def test_monte_carlo_temperature_shrinks_aleatoric(self):
        model, scaler, inputs = self._tiny_model_and_inputs()
        base = monte_carlo_forecast(model, inputs, scaler, num_samples=3, temperature=1.0,
                                    rng=np.random.default_rng(2))
        cooled = monte_carlo_forecast(model, inputs, scaler, num_samples=3, temperature=2.0,
                                      rng=np.random.default_rng(2))
        assert np.allclose(cooled.aleatoric_var, base.aleatoric_var / 4.0)

    def test_monte_carlo_restores_dropout_state(self):
        model, scaler, inputs = self._tiny_model_and_inputs()
        monte_carlo_forecast(model, inputs, scaler, num_samples=2)
        assert not model.encoder_dropout.mc_active

    def test_monte_carlo_invalid_args(self):
        model, scaler, inputs = self._tiny_model_and_inputs()
        with pytest.raises(ValueError):
            monte_carlo_forecast(model, inputs, scaler, num_samples=0)
        with pytest.raises(ValueError):
            monte_carlo_forecast(model, inputs, scaler, temperature=0.0)

    def test_single_sample_has_zero_epistemic(self):
        model, scaler, inputs = self._tiny_model_and_inputs()
        result = monte_carlo_forecast(model, inputs, scaler, num_samples=1)
        assert np.allclose(result.epistemic_var, 0.0)
