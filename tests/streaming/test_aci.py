"""Adaptive conformal inference state: updates, intervals, persistence."""

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.metrics import Z_95, norm_ppf
from repro.streaming import ACIConfig, AdaptiveConformalCalibrator
from repro.streaming.aci import nonconformity


def _result(mean, std):
    mean = np.asarray(mean, dtype=np.float64)
    std = np.broadcast_to(np.asarray(std, dtype=np.float64), mean.shape)
    return PredictionResult(
        mean=mean,
        aleatoric_var=(std ** 2).copy(),
        epistemic_var=np.zeros_like(mean),
    )


class TestACIConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ACIConfig(significance=0.0)
        with pytest.raises(ValueError):
            ACIConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            ACIConfig(mode="bogus")
        with pytest.raises(ValueError):
            ACIConfig(window=0)

    def test_constructor_rejects_config_plus_kwargs(self):
        with pytest.raises(ValueError):
            AdaptiveConformalCalibrator(2, config=ACIConfig(), gamma=0.5)
        with pytest.raises(ValueError):
            AdaptiveConformalCalibrator(0)


class TestQuantiles:
    def test_gaussian_fallback_before_min_scores(self):
        calibrator = AdaptiveConformalCalibrator(3, significance=0.05, min_scores=10)
        expected = norm_ppf(1.0 - 0.05 / 2.0)
        np.testing.assert_allclose(calibrator.quantiles(), expected, atol=1e-12)

    def test_empirical_quantile_once_filled(self):
        calibrator = AdaptiveConformalCalibrator(
            1, significance=0.05, min_scores=10, window=100, mode="rolling"
        )
        scores = np.linspace(0.0, 1.0, 100)
        calibrator.update(0, scores)
        n = 100
        level = min(np.ceil((n + 1) * 0.95) / n, 1.0)
        assert calibrator.quantiles()[0] == pytest.approx(
            np.quantile(scores, level), abs=1e-12
        )

    def test_per_horizon_quantiles_are_independent(self):
        calibrator = AdaptiveConformalCalibrator(2, min_scores=5, mode="rolling")
        calibrator.update(0, np.full(50, 1.0))
        calibrator.update(1, np.full(50, 3.0))
        q = calibrator.quantiles()
        assert q[0] == pytest.approx(1.0)
        assert q[1] == pytest.approx(3.0)

    def test_rolling_window_evicts_old_scores(self):
        calibrator = AdaptiveConformalCalibrator(
            1, window=50, min_scores=5, mode="rolling"
        )
        calibrator.update(0, np.full(50, 10.0))
        calibrator.update(0, np.full(50, 1.0))  # fully displaces the old regime
        assert calibrator.quantiles()[0] == pytest.approx(1.0)


class TestIntervalEmission:
    def test_intervals_scale_with_local_sigma(self):
        calibrator = AdaptiveConformalCalibrator(2, min_scores=5, mode="rolling")
        calibrator.update(0, np.full(20, 2.0))
        calibrator.update(1, np.full(20, 2.0))
        result = _result(np.zeros((1, 2, 3)), np.array([1.0, 2.0, 3.0]))
        lower, upper = calibrator.intervals(result)
        q = calibrator.quantiles()[0]
        np.testing.assert_allclose(upper[0, 0], q * np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(lower, -upper)

    def test_calibrate_reproduces_bounds_via_gaussian_interface(self):
        calibrator = AdaptiveConformalCalibrator(2, min_scores=5, mode="rolling")
        calibrator.update(0, np.abs(np.random.default_rng(0).normal(size=40)))
        calibrator.update(1, np.abs(np.random.default_rng(1).normal(size=40)))
        result = _result(np.random.default_rng(2).normal(size=(4, 2, 3)), 1.7)
        lower, upper = calibrator.intervals(result)
        calibrated = calibrator.calibrate(result)
        lo2, up2 = calibrated.interval(significance=0.05)
        np.testing.assert_allclose(lo2, lower, atol=1e-9)
        np.testing.assert_allclose(up2, upper, atol=1e-9)
        # Pseudo std encodes exactly the conformal half-width.
        np.testing.assert_allclose(
            calibrated.std * Z_95, (upper - lower) / 2.0, atol=1e-9
        )

    def test_zero_sigma_falls_back_to_unit_scale(self):
        calibrator = AdaptiveConformalCalibrator(1, min_scores=5, mode="rolling")
        calibrator.update(0, np.full(10, 2.0))
        result = _result(np.zeros((1, 1, 2)), 0.0)
        lower, upper = calibrator.intervals(result)
        np.testing.assert_allclose(upper, 2.0)

    def test_horizon_mismatch_raises(self):
        calibrator = AdaptiveConformalCalibrator(3)
        with pytest.raises(ValueError):
            calibrator.intervals(_result(np.zeros((1, 2, 2)), 1.0))


class TestAlphaUpdate:
    def test_gibbs_candes_rule(self):
        calibrator = AdaptiveConformalCalibrator(1, significance=0.05, gamma=0.1, mode="aci")
        calibrator.update(0, np.empty(0), miscoverage=1.0)
        # alpha <- 0.05 + 0.1 * (0.05 - 1.0)
        assert calibrator.alpha_t[0] == pytest.approx(max(0.05 + 0.1 * -0.95, 1e-3))
        before = calibrator.alpha_t[0]
        calibrator.update(0, np.empty(0), miscoverage=0.0)
        assert calibrator.alpha_t[0] == pytest.approx(before + 0.1 * 0.05)

    def test_alpha_is_clipped(self):
        calibrator = AdaptiveConformalCalibrator(
            1, significance=0.05, gamma=10.0, mode="aci", alpha_clip=1e-3
        )
        for _ in range(50):
            calibrator.update(0, np.empty(0), miscoverage=1.0)
        assert calibrator.alpha_t[0] >= 1e-3
        for _ in range(50):
            calibrator.update(0, np.empty(0), miscoverage=0.0)
        assert calibrator.alpha_t[0] <= 1.0 - 1e-3

    def test_rolling_mode_keeps_alpha_fixed(self):
        calibrator = AdaptiveConformalCalibrator(1, significance=0.05, mode="rolling")
        calibrator.update(0, np.full(5, 1.0), miscoverage=1.0)
        assert calibrator.alpha_t[0] == pytest.approx(0.05)

    def test_static_mode_freezes_once_full(self):
        calibrator = AdaptiveConformalCalibrator(
            1, window=20, min_scores=5, mode="static"
        )
        calibrator.update(0, np.full(20, 1.0))
        calibrator.update(0, np.full(20, 100.0))  # ignored: calibration set frozen
        assert calibrator.quantiles()[0] == pytest.approx(1.0)

    def test_reset_scores_unfreezes(self):
        calibrator = AdaptiveConformalCalibrator(
            1, window=20, min_scores=5, mode="static"
        )
        calibrator.update(0, np.full(20, 1.0))
        calibrator.reset_scores()
        calibrator.update(0, np.full(20, 100.0))
        assert calibrator.quantiles()[0] == pytest.approx(100.0)

    def test_bad_horizon_index(self):
        with pytest.raises(IndexError):
            AdaptiveConformalCalibrator(2).update(2, np.empty(0))


class TestWarmStart:
    def test_update_seeds_the_buffers_from_a_validation_batch(self):
        calibrator = AdaptiveConformalCalibrator(2, min_scores=5, mode="rolling")
        rng = np.random.default_rng(5)
        result = _result(rng.normal(size=(30, 2, 4)), 2.0)
        targets = result.mean + rng.normal(size=result.mean.shape) * 2.0
        scores = nonconformity(targets, result.mean, result.std)
        for h in range(2):
            calibrator.update(h, scores[:, h, :])
        q = calibrator.quantiles()
        assert np.all(q > 0.5) and np.all(q < 4.0)


class TestStatePersistence:
    def _exercised(self):
        calibrator = AdaptiveConformalCalibrator(
            3, significance=0.1, gamma=0.02, window=64, min_scores=8, mode="aci"
        )
        rng = np.random.default_rng(11)
        for _ in range(40):
            for h in range(3):
                calibrator.update(
                    h, np.abs(rng.normal(size=5)), miscoverage=float(rng.random() < 0.1)
                )
        return calibrator

    def test_state_roundtrip_bit_identical(self):
        calibrator = self._exercised()
        state = calibrator.get_state()
        restored = AdaptiveConformalCalibrator(3).set_state(state)
        for key, array in state["arrays"].items():
            np.testing.assert_array_equal(
                getattr(restored, "_" + key.split(".")[1], None)
                if key != "aci.alpha_t"
                else restored.alpha_t,
                array,
                err_msg=key,
            )
        np.testing.assert_array_equal(restored.quantiles(), calibrator.quantiles())

    def test_directory_checkpoint_roundtrip(self, tmp_path):
        calibrator = self._exercised()
        calibrator.save(tmp_path / "aci")
        restored = AdaptiveConformalCalibrator.load(tmp_path / "aci")
        original = calibrator.get_state()["arrays"]
        reloaded = restored.get_state()["arrays"]
        assert set(original) == set(reloaded)
        for key in original:
            np.testing.assert_array_equal(original[key], reloaded[key], err_msg=key)
        # Identical future behaviour, not just identical arrays.
        result = _result(np.random.default_rng(12).normal(size=(2, 3, 4)), 1.3)
        np.testing.assert_array_equal(
            calibrator.calibrate(result).std, restored.calibrate(result).std
        )
        assert restored.config == calibrator.config

    def test_horizon_mismatch_rejected(self):
        state = self._exercised().get_state()
        with pytest.raises(ValueError):
            AdaptiveConformalCalibrator(2).set_state(state)

    def test_wrong_kind_rejected(self):
        state = self._exercised().get_state()
        state["meta"]["kind"] = "other"
        with pytest.raises(ValueError):
            AdaptiveConformalCalibrator(3).set_state(state)

    def test_unsupported_format_version(self, tmp_path):
        calibrator = self._exercised()
        path = calibrator.save(tmp_path / "aci")
        import json

        meta_file = path / "checkpoint.json"
        meta = json.loads(meta_file.read_text())
        meta["format_version"] = 99
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format"):
            AdaptiveConformalCalibrator.load(path)


class TestSortedRingQuantiles:
    """The O(log n) sorted-ring read must be bit-identical to np.quantile."""

    def _reference_quantiles(self, calibrator):
        """The legacy implementation: re-sort the raw ring every call."""
        from repro.metrics.uncertainty import conformal_quantile_level

        cfg = calibrator.config
        reference = np.empty(calibrator.horizon)
        for h in range(calibrator.horizon):
            n = int(calibrator._count[h])
            if n < cfg.min_scores:
                level = 1.0 - calibrator.alpha_t[h]
                reference[h] = norm_ppf(0.5 + level / 2.0)
                continue
            corrected = conformal_quantile_level(n, calibrator.alpha_t[h])
            reference[h] = np.quantile(calibrator._scores[h, :n], corrected)
        return reference

    @pytest.mark.parametrize("mode", ["static", "rolling", "aci"])
    def test_matches_np_quantile_through_an_online_stream(self, mode, rng):
        calibrator = AdaptiveConformalCalibrator(
            3, config=ACIConfig(mode=mode, window=97, min_scores=5)
        )
        for _ in range(300):
            for h in range(3):
                scores = rng.gamma(2.0, 1.0, size=int(rng.integers(0, 9)))
                calibrator.update(h, scores, miscoverage=float(rng.uniform(0.0, 0.2)))
            np.testing.assert_array_equal(
                calibrator.quantiles(), self._reference_quantiles(calibrator)
            )

    def test_sorted_mirror_survives_reset_and_state_restore(self, rng):
        calibrator = AdaptiveConformalCalibrator(
            2, config=ACIConfig(window=50, min_scores=5)
        )
        for _ in range(120):
            for h in range(2):
                calibrator.update(h, rng.gamma(2.0, 1.0, size=4), miscoverage=0.05)
        restored = AdaptiveConformalCalibrator(
            2, config=ACIConfig(window=50, min_scores=5)
        ).set_state(calibrator.get_state())
        np.testing.assert_array_equal(restored.quantiles(), calibrator.quantiles())
        np.testing.assert_array_equal(
            restored.quantiles(), self._reference_quantiles(restored)
        )
        calibrator.reset_scores()
        for h in range(2):
            calibrator.update(h, rng.gamma(2.0, 1.0, size=30), miscoverage=0.05)
        np.testing.assert_array_equal(
            calibrator.quantiles(), self._reference_quantiles(calibrator)
        )
