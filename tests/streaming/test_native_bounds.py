"""Native asymmetric bounds through the adaptive conformal layer (CQR mode)."""

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.streaming import (
    ACIConfig,
    AdaptiveConformalCalibrator,
    StreamingForecaster,
)
from repro.streaming.aci import nonconformity

Z95 = 1.959963984540054
HORIZON, NODES = 3, 2


def _bounded_result(mean, lower_offset, upper_offset):
    mean = np.asarray(mean, dtype=np.float64)
    lower = mean - lower_offset
    upper = mean + upper_offset
    pseudo = (upper - lower) / (2.0 * Z95)
    return PredictionResult(
        mean=mean,
        aleatoric_var=pseudo ** 2,
        epistemic_var=np.zeros_like(mean),
        lower=lower,
        upper=upper,
    )


def _ingest(core, row):
    """Resolve, detect and append one row, in the solo runner's order."""
    obs, valid = core.normalize(row)
    resolved = core.resolve(core.step, obs, valid)
    core.detect(core.step, resolved.covered, resolved.abs_error)
    core.append(obs, valid)


def _plain_result(mean, sigma=1.0):
    mean = np.asarray(mean, dtype=np.float64)
    return PredictionResult(
        mean=mean,
        aleatoric_var=np.full_like(mean, sigma ** 2),
        epistemic_var=np.zeros_like(mean),
    )


class TestPredictionResultBounds:
    def test_bounds_require_both_sides(self):
        mean = np.zeros((1, HORIZON, NODES))
        with pytest.raises(ValueError, match="both lower and upper"):
            PredictionResult(
                mean=mean, aleatoric_var=mean, epistemic_var=mean, lower=mean
            )

    def test_slicing_and_copy_preserve_bounds(self):
        result = _bounded_result(np.zeros((4, HORIZON, NODES)), 1.0, 2.0)
        sliced = result[1]
        assert sliced.has_native_bounds
        assert sliced.lower.shape == (1, HORIZON, NODES)
        copied = result.copy()
        copied.lower[:] = -99.0
        assert not np.array_equal(copied.lower, result.lower)

    def test_concatenate_keeps_bounds_only_when_all_have_them(self):
        bounded = _bounded_result(np.zeros((1, HORIZON, NODES)), 1.0, 2.0)
        plain = _plain_result(np.zeros((1, HORIZON, NODES)))
        both = PredictionResult.concatenate([bounded, bounded])
        assert both.has_native_bounds and both.lower.shape[0] == 2
        mixed = PredictionResult.concatenate([bounded, plain])
        assert not mixed.has_native_bounds

    def test_replace_interval_bounds_folds_width_into_pseudo_std(self):
        result = _plain_result(np.zeros((1, HORIZON, NODES)))
        lower = np.full((1, HORIZON, NODES), -1.0)
        upper = np.full((1, HORIZON, NODES), 3.0)
        replaced = result.replace_interval_bounds(lower, upper)
        np.testing.assert_allclose(replaced.std, (upper - lower) / (2.0 * Z95))
        np.testing.assert_array_equal(replaced.lower, lower)


class TestAutoDetection:
    def test_auto_latches_native_from_first_result(self):
        calibrator = AdaptiveConformalCalibrator(HORIZON)
        assert not calibrator.uses_native()
        calibrator.intervals(_bounded_result(np.zeros((1, HORIZON, NODES)), 1.0, 2.0))
        assert calibrator.uses_native()
        # latched: a later symmetric result does not flip the mode
        calibrator.intervals(_plain_result(np.zeros((1, HORIZON, NODES))))
        assert calibrator.uses_native()

    def test_auto_latches_scaled_from_plain_result(self):
        calibrator = AdaptiveConformalCalibrator(HORIZON)
        calibrator.intervals(_plain_result(np.zeros((1, HORIZON, NODES))))
        assert not calibrator.uses_native()

    def test_explicit_modes_ignore_the_result(self):
        scaled = AdaptiveConformalCalibrator(HORIZON, config=ACIConfig(interval_mode="scaled"))
        scaled.intervals(_bounded_result(np.zeros((1, HORIZON, NODES)), 1.0, 2.0))
        assert not scaled.uses_native()
        native = AdaptiveConformalCalibrator(HORIZON, config=ACIConfig(interval_mode="native"))
        assert native.uses_native()

    def test_bad_interval_mode_rejected(self):
        with pytest.raises(ValueError, match="interval_mode"):
            ACIConfig(interval_mode="sideways")


class TestNativeCalibration:
    def test_before_min_scores_native_bounds_pass_through(self):
        calibrator = AdaptiveConformalCalibrator(
            HORIZON, config=ACIConfig(min_scores=10)
        )
        result = _bounded_result(np.zeros((1, HORIZON, NODES)), 1.0, 4.0)
        lower, upper = calibrator.intervals(result)
        np.testing.assert_array_equal(lower, result.lower)
        np.testing.assert_array_equal(upper, result.upper)

    def test_margins_are_additive_and_preserve_asymmetry(self):
        calibrator = AdaptiveConformalCalibrator(
            HORIZON, config=ACIConfig(min_scores=5, mode="rolling")
        )
        result = _bounded_result(np.zeros((1, HORIZON, NODES)), 1.0, 4.0)
        calibrator.uses_native(result)
        # feed constant CQR scores of 2.0 → margin converges to ~2.0
        for _ in range(50):
            for h in range(HORIZON):
                calibrator.update(h, np.full(8, 2.0))
        lower, upper = calibrator.intervals(result)
        margins = calibrator.margins()
        np.testing.assert_allclose(margins, 2.0)
        np.testing.assert_allclose(result.lower - lower, 2.0)
        np.testing.assert_allclose(upper - result.upper, 2.0)
        # asymmetry of the native bounds survives calibration
        np.testing.assert_allclose(result.mean - lower, 3.0)
        np.testing.assert_allclose(upper - result.mean, 6.0)

    def test_negative_margin_shrinks_conservative_bounds(self):
        calibrator = AdaptiveConformalCalibrator(
            HORIZON, config=ACIConfig(min_scores=5, mode="rolling", significance=0.5)
        )
        result = _bounded_result(np.zeros((1, HORIZON, NODES)), 5.0, 5.0)
        calibrator.uses_native(result)
        for _ in range(50):
            for h in range(HORIZON):
                calibrator.update(h, np.full(8, -2.0))  # well inside the bounds
        lower, upper = calibrator.intervals(result)
        assert np.all(lower > result.lower)
        assert np.all(upper < result.upper)
        assert np.all(lower <= upper)

    def test_calibrate_attaches_bounds_and_width(self):
        calibrator = AdaptiveConformalCalibrator(HORIZON)
        result = _bounded_result(np.zeros((1, HORIZON, NODES)), 1.0, 4.0)
        calibrated = calibrator.calibrate(result)
        assert calibrated.has_native_bounds
        lower, upper = calibrator.intervals(result)
        np.testing.assert_array_equal(calibrated.lower, lower)
        np.testing.assert_allclose(
            calibrated.std, (upper - lower) / (2.0 * Z95)
        )

    def test_score_is_cqr_in_native_mode(self):
        obs = np.array([0.0, 10.0])
        lower = np.array([1.0, 0.0])
        upper = np.array([5.0, 6.0])
        scores = nonconformity(obs, mean=np.zeros(2), scale=np.ones(2),
                               lower=lower, upper=upper, native=True)
        np.testing.assert_allclose(scores, [1.0, 4.0])

    def test_cqr_scores_set_the_margins(self):
        calibrator = AdaptiveConformalCalibrator(
            1, config=ACIConfig(min_scores=1, mode="rolling")
        )
        result = _bounded_result(np.zeros((5, 1, NODES)), 1.0, 1.0)
        targets = np.full((5, 1, NODES), 3.0)  # CQR score 2.0 everywhere
        scores = nonconformity(targets, result.mean, result.std,
                               result.lower, result.upper, native=True)
        calibrator.update(0, scores[:, 0, :])
        np.testing.assert_allclose(calibrator.margins(), 2.0, atol=1e-9)


class TestCheckpointRoundTrip:
    def test_native_latch_and_margins_round_trip(self, tmp_path):
        calibrator = AdaptiveConformalCalibrator(
            HORIZON, config=ACIConfig(min_scores=5, window=64)
        )
        result = _bounded_result(np.zeros((1, HORIZON, NODES)), 1.0, 4.0)
        calibrator.uses_native(result)
        rng = np.random.default_rng(0)
        for _ in range(30):
            for h in range(HORIZON):
                calibrator.update(h, rng.normal(size=6), miscoverage=0.1)
        calibrator.save(tmp_path / "aci")
        restored = AdaptiveConformalCalibrator.load(tmp_path / "aci")
        assert restored.uses_native()
        np.testing.assert_array_equal(restored.margins(), calibrator.margins())
        np.testing.assert_array_equal(restored.alpha_t, calibrator.alpha_t)

    def test_unlatched_auto_round_trips_as_unlatched(self, tmp_path):
        calibrator = AdaptiveConformalCalibrator(HORIZON)
        calibrator.save(tmp_path / "aci")
        restored = AdaptiveConformalCalibrator.load(tmp_path / "aci")
        assert restored._native is None

    def test_pre_native_checkpoint_with_warm_buffers_is_rejected(self):
        """A checkpoint written before native-bound support holds scaled
        multiplier scores and no latch; this build does not read it."""
        calibrator = AdaptiveConformalCalibrator(
            HORIZON, config=ACIConfig(min_scores=5, mode="rolling")
        )
        for _ in range(20):
            for h in range(HORIZON):
                calibrator.update(h, np.full(4, 2.0))
        state = calibrator.get_state()
        # emulate the old writer: no latch, no interval_mode knob
        del state["meta"]["native"]
        del state["meta"]["config"]["interval_mode"]
        with pytest.raises(ValueError, match="no 'native' key"):
            AdaptiveConformalCalibrator(HORIZON).set_state(state)

    def test_pre_native_checkpoint_with_fresh_buffers_is_rejected(self):
        calibrator = AdaptiveConformalCalibrator(HORIZON)
        state = calibrator.get_state()
        del state["meta"]["native"]
        del state["meta"]["config"]["interval_mode"]
        with pytest.raises(ValueError, match="no 'native' key"):
            AdaptiveConformalCalibrator(HORIZON).set_state(state)


class _AsymmetricPredictor:
    """Quantile-style predictor: interval skewed above the point forecast."""

    def __init__(self, below=1.0, above=4.0):
        self.below, self.above = float(below), float(above)

    def predict(self, windows):
        mean = np.repeat(windows[:, -1:, :], HORIZON, axis=1)
        return _bounded_result(mean, self.below, self.above)


class TestRunnerIntegration:
    def test_streaming_loop_keeps_asymmetric_intervals(self):
        rng = np.random.default_rng(3)
        runner = StreamingForecaster(
            _AsymmetricPredictor(),
            history=4,
            horizon=HORIZON,
            aci={"window": 500, "min_scores": 20},
            detectors=[],
        )
        x = np.zeros(NODES)
        result = None
        for _ in range(300):
            x = x + rng.normal(0.0, 0.5, NODES)
            result = runner.observe(x + rng.gamma(2.0, 1.5, NODES))
        assert runner.calibrator.uses_native()
        lower_offset = result.prediction.mean[0] - result.lower
        upper_offset = result.upper - result.prediction.mean[0]
        # native skew (1 below vs 4 above) survives online calibration
        assert np.all(upper_offset - lower_offset > 2.9)
        # and the gamma-noise stream is covered at roughly the nominal rate
        assert runner.monitor.coverage == pytest.approx(95.0, abs=3.0)

    def test_native_latched_calibrator_handles_gaussian_results(self):
        """A bound-less model on a native-latched stream (e.g. a refit
        candidate of a different family) gets synthesized Gaussian reference
        bounds — never degenerate intervals from unit-mixed margins."""
        calibrator = AdaptiveConformalCalibrator(
            HORIZON, config=ACIConfig(min_scores=5, mode="rolling")
        )
        native = _bounded_result(np.zeros((1, HORIZON, NODES)), 5.0, 5.0)
        calibrator.uses_native(native)
        # over-wide native bounds drive the margins strongly negative
        for _ in range(50):
            for h in range(HORIZON):
                calibrator.update(h, np.full(8, -4.0))
        assert np.all(calibrator.margins() < 0)
        gaussian = _plain_result(np.zeros((1, HORIZON, NODES)), sigma=1.0)
        lower, upper = calibrator.intervals(gaussian)
        assert np.all(lower <= upper)
        calibrated = calibrator.calibrate(gaussian)
        assert calibrated.has_native_bounds
        assert np.all(calibrated.upper >= calibrated.lower)

    def test_mixed_mode_stream_keeps_consistent_scores(self):
        """Scoring stays in bound space when a symmetric model serves a
        native-latched stream (entries get synthesized reference bounds)."""
        from repro.streaming import StreamCore

        core = StreamCore(4, HORIZON, aci={"min_scores": 20, "window": 200})
        rng = np.random.default_rng(0)

        class Native(_AsymmetricPredictor):
            pass

        class Gaussian:
            def predict(self, windows):
                mean = np.repeat(windows[:, -1:, :], HORIZON, axis=1)
                return _plain_result(mean, sigma=2.0)

        native, gaussian = Native(), Gaussian()
        x = np.zeros(NODES)
        for t in range(120):
            x = x + rng.normal(0.0, 0.5, NODES)
            _ingest(core, x + rng.normal(0.0, 2.0, NODES))
            window = core.window()
            if window is not None:
                model = native if t < 60 else gaussian  # family swap mid-stream
                _, lower, upper = core.record(model.predict(window))
                assert np.all(lower <= upper)
            core.advance()
        assert core.calibrator.uses_native()

    def test_per_horizon_margins_adapt_independently(self):
        calibrator = AdaptiveConformalCalibrator(
            2, config=ACIConfig(min_scores=5, mode="rolling")
        )
        result = _bounded_result(np.zeros((1, 2, NODES)), 1.0, 1.0)
        calibrator.uses_native(result)
        for _ in range(40):
            calibrator.update(0, np.full(4, 1.0))
            calibrator.update(1, np.full(4, 3.0))
        margins = calibrator.margins()
        assert margins[0] == pytest.approx(1.0)
        assert margins[1] == pytest.approx(3.0)
