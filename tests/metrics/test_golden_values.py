"""Golden-value regression tests for ``repro.metrics``.

Every expected number below is computed *by hand* from the metric definition
(paper Eqs. 20-26) on tiny fixtures, so a serving/engine refactor that
silently shifts any reported metric fails loudly here.
"""

import numpy as np
import pytest

from repro.metrics import (
    Z_95,
    interval_bounds,
    mae,
    mape,
    mnll,
    mpiw,
    norm_ppf,
    per_horizon_metrics,
    per_horizon_uncertainty,
    picp,
    point_metrics,
    rmse,
    winkler_score,
)


class TestNormPpfGoldens:
    """Pin the pure-NumPy inverse normal against ``scipy.stats.norm.ppf``.

    The expected values below were produced by scipy 1.x on this container
    before the scipy import was removed from the serving hot path; the new
    Acklam + Halley implementation must keep reproducing them.
    """

    # (p, scipy.stats.norm.ppf(p)) pairs, recorded verbatim.
    SCIPY_GOLDENS = [
        (0.001, -3.090232306167813),
        (0.01, -2.3263478740408408),
        (0.025, -1.9599639845400545),
        (0.05, -1.6448536269514729),
        (0.1, -1.2815515655446004),
        (0.25, -0.6744897501960817),
        (0.5, 0.0),
        (0.75, 0.6744897501960817),
        (0.9, 1.2815515655446004),
        (0.95, 1.6448536269514722),
        (0.975, 1.959963984540054),
        (0.99, 2.3263478740408408),
        (0.995, 2.5758293035489004),
        (0.999, 3.090232306167813),
    ]

    def test_matches_scipy_goldens(self):
        for p, expected in self.SCIPY_GOLDENS:
            assert norm_ppf(p) == pytest.approx(expected, abs=1e-12), p

    def test_vectorized_matches_scalar(self):
        ps = np.array([p for p, _ in self.SCIPY_GOLDENS])
        expected = np.array([z for _, z in self.SCIPY_GOLDENS])
        np.testing.assert_allclose(norm_ppf(ps), expected, atol=1e-12)
        assert norm_ppf(ps.reshape(2, 7)).shape == (2, 7)

    def test_deep_tails(self):
        # scipy.stats.norm.ppf(1e-9) / (1 - 1e-9), recorded verbatim.
        assert norm_ppf(1e-9) == pytest.approx(-5.9978070150076865, abs=1e-12)
        assert norm_ppf(1.0 - 1e-9) == pytest.approx(5.997807019601637, abs=1e-11)

    def test_symmetry(self):
        for p, _ in self.SCIPY_GOLDENS:
            assert norm_ppf(p) == pytest.approx(-norm_ppf(1.0 - p), abs=1e-12)

    def test_z95_constant_reproduced(self):
        assert norm_ppf(0.975) == pytest.approx(Z_95, abs=1e-12)

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                norm_ppf(bad)
        with pytest.raises(ValueError):
            norm_ppf(np.array([0.5, 1.0]))

    def test_interval_bounds_no_scipy_on_hot_path(self):
        """The serving hot path must not import scipy anymore."""
        import ast
        import inspect

        import repro.metrics.uncertainty as module

        tree = ast.parse(inspect.getsource(module))
        imported = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "scipy" in ast.dump(node)
        ]
        assert imported == []


class TestPointGoldens:
    # prediction errors: +1, -2, +3  -> |e| = 1, 2, 3
    PRED = np.array([21.0, 38.0, 53.0])
    TARGET = np.array([20.0, 40.0, 50.0])

    def test_mae(self):
        # (1 + 2 + 3) / 3 = 2
        assert mae(self.PRED, self.TARGET) == pytest.approx(2.0, abs=1e-12)

    def test_rmse(self):
        # sqrt((1 + 4 + 9) / 3) = sqrt(14/3)
        assert rmse(self.PRED, self.TARGET) == pytest.approx(np.sqrt(14.0 / 3.0), abs=1e-12)

    def test_mape(self):
        # (1/20 + 2/40 + 3/50) / 3 * 100 = (0.05 + 0.05 + 0.06) / 3 * 100
        assert mape(self.PRED, self.TARGET) == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_mape_masks_near_zero_targets(self):
        pred = np.array([1.0, 21.0])
        target = np.array([0.5, 20.0])  # 0.5 < epsilon=10 -> masked out
        assert mape(pred, target) == pytest.approx(5.0, abs=1e-12)

    def test_mape_all_masked_is_nan(self):
        assert np.isnan(mape(np.array([1.0]), np.array([2.0])))

    def test_point_metrics_bundle(self):
        bundle = point_metrics(self.PRED, self.TARGET)
        assert bundle["MAE"] == pytest.approx(2.0, abs=1e-12)
        assert bundle["RMSE"] == pytest.approx(np.sqrt(14.0 / 3.0), abs=1e-12)
        assert bundle["MAPE"] == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3), np.zeros(4))


class TestIntervalGoldens:
    def test_picp_half_covered(self):
        target = np.array([1.0, 5.0, 10.0, 20.0])
        lower = np.array([0.0, 6.0, 9.0, 21.0])
        upper = np.array([2.0, 7.0, 11.0, 22.0])
        # covered: yes, no, yes, no -> 50%
        assert picp(target, lower, upper) == pytest.approx(50.0, abs=1e-12)

    def test_picp_boundary_counts_as_covered(self):
        assert picp(np.array([1.0]), np.array([1.0]), np.array([2.0])) == pytest.approx(100.0)

    def test_mpiw(self):
        lower = np.array([0.0, 2.0])
        upper = np.array([4.0, 8.0])
        # widths 4 and 6 -> mean 5
        assert mpiw(lower, upper) == pytest.approx(5.0, abs=1e-12)

    def test_mpiw_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            mpiw(np.array([1.0]), np.array([0.0]))

    def test_mnll_standard_normal(self):
        # target == mean, variance 1 -> NLL = 0.5 * log(2*pi)
        value = mnll(np.array([0.0]), np.array([0.0]), np.array([1.0]))
        assert value == pytest.approx(0.5 * np.log(2.0 * np.pi), abs=1e-12)

    def test_mnll_with_error(self):
        # variance 4, error 2: 0.5 * (log(8*pi) + 4/4)
        value = mnll(np.array([2.0]), np.array([0.0]), np.array([4.0]))
        assert value == pytest.approx(0.5 * (np.log(8.0 * np.pi) + 1.0), abs=1e-12)

    def test_interval_bounds_95(self):
        lower, upper = interval_bounds(np.array([10.0]), np.array([2.0]), significance=0.05)
        z = 1.959963984540054
        assert lower[0] == pytest.approx(10.0 - 2.0 * z, abs=1e-9)
        assert upper[0] == pytest.approx(10.0 + 2.0 * z, abs=1e-9)

    def test_winkler_inside_is_width(self):
        # Covered target: score is just the width.
        value = winkler_score(np.array([1.0]), np.array([0.0]), np.array([2.0]))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_winkler_miss_penalty(self):
        # Target 3 above the upper bound: width + (2/0.05) * 1 = 2 + 40
        value = winkler_score(np.array([3.0]), np.array([0.0]), np.array([2.0]))
        assert value == pytest.approx(42.0, abs=1e-12)


class TestHorizonGoldens:
    def test_per_horizon_metrics_hand_computed(self):
        # (samples=2, horizon=2, nodes=1); per-step errors chosen by hand.
        prediction = np.array([[[21.0], [42.0]], [[19.0], [38.0]]])
        target = np.array([[[20.0], [40.0]], [[20.0], [40.0]]])
        curves = per_horizon_metrics(prediction, target, interval_minutes=5)
        assert curves["horizon_minutes"] == [5, 10]
        # step 0 errors: +1, -1 -> MAE 1, RMSE 1; step 1 errors: +2, -2 -> MAE 2, RMSE 2
        assert curves["MAE"] == pytest.approx([1.0, 2.0], abs=1e-12)
        assert curves["RMSE"] == pytest.approx([1.0, 2.0], abs=1e-12)
        # MAPE: step 0 = (1/20 + 1/20)/2 * 100 = 5%; step 1 = (2/40 + 2/40)/2 * 100 = 5%
        assert curves["MAPE"] == pytest.approx([5.0, 5.0], abs=1e-12)

    def test_per_horizon_uncertainty_hand_computed(self):
        aleatoric = np.array([[[1.0], [3.0]], [[2.0], [5.0]]])
        epistemic = np.array([[[0.5], [1.0]], [[1.5], [3.0]]])
        curves = per_horizon_uncertainty(aleatoric, epistemic, interval_minutes=5)
        assert curves["aleatoric"] == pytest.approx([1.5, 4.0], abs=1e-12)
        assert curves["epistemic"] == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            per_horizon_metrics(np.zeros((2, 2)), np.zeros((2, 2)))
