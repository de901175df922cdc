"""Tests for point and uncertainty metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import (
    interval_bounds,
    mae,
    mape,
    mnll,
    mpiw,
    per_horizon_metrics,
    per_horizon_uncertainty,
    picp,
    point_metrics,
    rmse,
    uncertainty_metrics,
    winkler_score,
)


class TestPointMetrics:
    def test_mae_known_value(self):
        assert mae(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(1.5)

    def test_rmse_known_value(self):
        assert rmse(np.array([3.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(np.sqrt(4.5))

    def test_mape_known_value(self):
        assert mape(np.array([110.0, 90.0]), np.array([100.0, 100.0])) == pytest.approx(10.0)

    def test_mape_masks_small_targets(self):
        value = mape(np.array([5.0, 110.0]), np.array([0.5, 100.0]), epsilon=10.0)
        assert value == pytest.approx(10.0)

    def test_mape_all_masked_is_nan(self):
        assert np.isnan(mape(np.array([1.0]), np.array([0.0])))

    def test_perfect_prediction(self):
        target = np.random.default_rng(0).uniform(50, 100, size=(10, 5))
        assert mae(target, target) == 0.0
        assert rmse(target, target) == 0.0
        assert mape(target, target) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mae(np.ones(3), np.ones(4))

    def test_rmse_upper_bounds_mae(self):
        rng = np.random.default_rng(1)
        prediction = rng.normal(size=100)
        target = rng.normal(size=100)
        assert rmse(prediction, target) >= mae(prediction, target)

    def test_point_metrics_bundle(self):
        metrics = point_metrics(np.array([110.0]), np.array([100.0]))
        assert set(metrics) == {"MAE", "RMSE", "MAPE"}

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_mae_shift_invariance(self, shift):
        rng = np.random.default_rng(0)
        prediction = rng.uniform(50, 150, size=50)
        target = rng.uniform(50, 150, size=50)
        assert mae(prediction + shift, target + shift) == pytest.approx(mae(prediction, target))


class TestIntervalMetrics:
    def test_interval_bounds_95(self):
        lower, upper = interval_bounds(np.array([10.0]), np.array([2.0]))
        assert lower[0] == pytest.approx(10.0 - 1.96 * 2.0, abs=1e-2)
        assert upper[0] == pytest.approx(10.0 + 1.96 * 2.0, abs=1e-2)

    def test_interval_bounds_invalid_significance(self):
        with pytest.raises(ValueError):
            interval_bounds(np.array([0.0]), np.array([1.0]), significance=1.5)

    def test_interval_bounds_negative_std(self):
        with pytest.raises(ValueError):
            interval_bounds(np.array([0.0]), np.array([-1.0]))

    def test_picp_counts_coverage(self):
        target = np.array([1.0, 5.0, 10.0, 20.0])
        lower = np.array([0.0, 6.0, 9.0, 19.0])
        upper = np.array([2.0, 7.0, 11.0, 21.0])
        assert picp(target, lower, upper) == pytest.approx(75.0)

    def test_mpiw(self):
        assert mpiw(np.array([0.0, 1.0]), np.array([2.0, 5.0])) == pytest.approx(3.0)

    def test_mpiw_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            mpiw(np.array([2.0]), np.array([1.0]))

    def test_mnll_standard_normal(self):
        value = mnll(np.array([0.0]), np.array([0.0]), np.array([1.0]))
        assert value == pytest.approx(0.5 * np.log(2 * np.pi))

    def test_mnll_penalizes_overconfidence(self):
        target = np.array([5.0])
        mean = np.array([0.0])
        confident = mnll(target, mean, np.array([0.1]))
        honest = mnll(target, mean, np.array([25.0]))
        assert confident > honest

    def test_winkler_penalizes_misses(self):
        target = np.array([10.0])
        inside = winkler_score(target, np.array([8.0]), np.array([12.0]))
        missed = winkler_score(target, np.array([11.0]), np.array([12.0]))
        assert missed > inside

    def test_uncertainty_metrics_gaussian(self):
        rng = np.random.default_rng(0)
        mean = rng.uniform(100, 200, size=2000)
        std = np.full_like(mean, 10.0)
        target = mean + rng.normal(scale=10.0, size=mean.shape)
        metrics = uncertainty_metrics(target, mean, std)
        assert metrics["PICP"] == pytest.approx(95.0, abs=2.0)
        assert metrics["MPIW"] == pytest.approx(2 * 1.96 * 10.0, rel=0.01)
        assert metrics["MNLL"] == pytest.approx(
            0.5 * np.log(2 * np.pi * 100.0) + 0.5, rel=0.05
        )

    def test_uncertainty_metrics_with_explicit_bounds(self):
        target = np.array([1.0, 2.0])
        mean = np.array([1.0, 2.0])
        std = np.zeros(2)
        metrics = uncertainty_metrics(target, mean, std, lower=mean - 1, upper=mean + 1)
        assert metrics["PICP"] == 100.0
        assert np.isnan(metrics["MNLL"])

    @given(st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_coverage_monotone_in_std(self, scale):
        """Wider Gaussian intervals can only increase coverage."""
        rng = np.random.default_rng(3)
        mean = np.zeros(500)
        target = rng.normal(scale=5.0, size=500)
        narrow = picp(target, *interval_bounds(mean, np.full(500, scale)))
        wide = picp(target, *interval_bounds(mean, np.full(500, scale * 2.0)))
        assert wide >= narrow


class TestHorizonMetrics:
    def _arrays(self):
        rng = np.random.default_rng(0)
        target = rng.uniform(100, 200, size=(50, 6, 4))
        noise = rng.normal(size=(50, 6, 4)) * np.arange(1, 7).reshape(1, 6, 1)
        return target + noise, target

    def test_per_horizon_metrics_keys_and_length(self):
        prediction, target = self._arrays()
        curves = per_horizon_metrics(prediction, target)
        assert curves["horizon_minutes"] == [5, 10, 15, 20, 25, 30]
        assert len(curves["MAE"]) == 6

    def test_error_grows_with_horizon(self):
        prediction, target = self._arrays()
        curves = per_horizon_metrics(prediction, target)
        assert curves["MAE"][-1] > curves["MAE"][0]
        assert curves["RMSE"][-1] > curves["RMSE"][0]

    def test_per_horizon_shape_validation(self):
        with pytest.raises(ValueError):
            per_horizon_metrics(np.ones((3, 4)), np.ones((3, 4)))
        with pytest.raises(ValueError):
            per_horizon_metrics(np.ones((3, 4, 2)), np.ones((3, 5, 2)))

    def test_per_horizon_uncertainty(self):
        aleatoric = np.ones((10, 4, 3)) * np.arange(1, 5).reshape(1, 4, 1)
        epistemic = 0.5 * aleatoric
        curves = per_horizon_uncertainty(aleatoric, epistemic)
        assert curves["aleatoric"] == pytest.approx([1.0, 2.0, 3.0, 4.0])
        assert curves["epistemic"] == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_per_horizon_uncertainty_shape_mismatch(self):
        with pytest.raises(ValueError):
            per_horizon_uncertainty(np.ones((5, 3, 2)), np.ones((5, 4, 2)))
