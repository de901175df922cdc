"""Post-hoc variance calibration via temperature scaling (paper Eqs. 17-18).

A single positive scalar ``T`` rescales the predicted variance
(``sigma^2 -> sigma^2 / T^2`` on the log-likelihood of Eq. 17; equivalently
the calibrated variance used at inference is ``sigma^2 / T`` in Eq. 19b).

``T`` is fitted on the *validation* split by minimizing

``(1/N) sum_i [ -log T^2 + T^2 (y_i - mu_i)^2 / sigma_i^2 ]``  (Eq. 18)

over cached predictions (either a deterministic forward pass or Monte-Carlo
estimates).  The paper runs L-BFGS on it, but the objective is convex in
``T^2`` with the closed-form minimizer ``T^2 = N / sum_i r_i``, where
``r_i = (y_i - mu_i)^2 / sigma_i^2``, so :meth:`TemperatureCalibrator.fit`
sets ``T`` to that minimizer directly.
"""

from __future__ import annotations

import numpy as np


class TemperatureCalibrator:
    """Fit and apply the temperature ``T`` of DeepSTUQ's calibration stage.

    Attributes
    ----------
    temperature:
        The fitted ``T`` (1.0 until :meth:`fit` is called).
    """

    def __init__(self) -> None:
        self.temperature: float = 1.0
        self.fitted: bool = False

    # ------------------------------------------------------------------ #
    @staticmethod
    def closed_form_temperature(
        target: np.ndarray, mean: np.ndarray, variance: np.ndarray
    ) -> float:
        """Analytic minimizer of Eq. 18: ``T = sqrt(N / sum_i r_i)``.

        Variances are floored at 1e-8, every entry alike, so one point's
        variance never changes how the others count.
        """
        target = np.asarray(target, dtype=np.float64)
        mean = np.asarray(mean, dtype=np.float64)
        variance = np.asarray(variance, dtype=np.float64)
        if target.shape != mean.shape or target.shape != variance.shape:
            raise ValueError("target, mean and variance must have identical shapes")
        variance = np.maximum(variance, 1e-8)
        ratios = (target - mean) ** 2 / variance
        total = float(ratios.sum())
        if total <= 0:
            return 1.0
        return float(np.sqrt(target.size / total))

    def fit(self, target: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
        """Fit ``T`` on validation predictions; returns the fitted temperature."""
        self.temperature = self.closed_form_temperature(target, mean, variance)
        if not np.isfinite(self.temperature) or self.temperature <= 0:
            self.temperature = 1.0
        self.fitted = True
        return self.temperature

    # ------------------------------------------------------------------ #
    def calibrate_variance(self, variance: np.ndarray) -> np.ndarray:
        """Apply the fitted temperature to an aleatoric variance (Eq. 19b)."""
        variance = np.asarray(variance, dtype=np.float64)
        return variance / (self.temperature ** 2)
