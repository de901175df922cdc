"""Post-hoc variance calibration via temperature scaling (paper Eqs. 17-18).

A single positive scalar ``T`` rescales the predicted variance
(``sigma^2 -> sigma^2 / T^2`` on the log-likelihood of Eq. 17; equivalently
the calibrated variance used at inference is ``sigma^2 / T`` in Eq. 19b).

``T`` is fitted on the *validation* split by minimizing

``(1/N) sum_i [ -log T^2 + T^2 (y_i - mu_i)^2 / sigma_i^2 ]``  (Eq. 18)

with L-BFGS, using cached predictions (either a deterministic forward pass or
Monte-Carlo estimates).  The objective is convex in ``T^2`` and has the
closed form minimizer ``T^2 = N / sum_i r_i`` with ``r_i = (y_i - mu_i)^2 /
sigma_i^2``; the closed form is exposed for testing and as a fallback when
the optimizer is disabled.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.optim.lbfgs import minimize_scalar_lbfgs


class TemperatureCalibrator:
    """Fit and apply the temperature ``T`` of DeepSTUQ's calibration stage.

    Attributes
    ----------
    temperature:
        The fitted ``T`` (1.0 until :meth:`fit` is called).
    """

    def __init__(self, max_iter: int = 500) -> None:
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.max_iter = max_iter
        self.temperature: float = 1.0
        self.fitted: bool = False

    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate(
        target: np.ndarray, mean: np.ndarray, variance: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        target = np.asarray(target, dtype=np.float64)
        mean = np.asarray(mean, dtype=np.float64)
        variance = np.asarray(variance, dtype=np.float64)
        if target.shape != mean.shape or target.shape != variance.shape:
            raise ValueError("target, mean and variance must have identical shapes")
        if np.any(variance <= 0):
            variance = np.maximum(variance, 1e-8)
        return target, mean, variance

    @staticmethod
    def closed_form_temperature(
        target: np.ndarray, mean: np.ndarray, variance: np.ndarray
    ) -> float:
        """Analytic minimizer of Eq. 18: ``T = sqrt(N / sum_i r_i)``."""
        target, mean, variance = TemperatureCalibrator._validate(target, mean, variance)
        ratios = (target - mean) ** 2 / variance
        total = float(ratios.sum())
        if total <= 0:
            return 1.0
        return float(np.sqrt(target.size / total))

    def objective(
        self, temperature: float, target: np.ndarray, mean: np.ndarray, variance: np.ndarray
    ) -> Tuple[float, float]:
        """Value and derivative of the calibration objective at ``temperature``."""
        target, mean, variance = self._validate(target, mean, variance)
        ratios = (target - mean) ** 2 / variance
        mean_ratio = float(ratios.mean())
        t_squared = temperature * temperature
        value = -np.log(max(t_squared, 1e-12)) + t_squared * mean_ratio
        gradient = -2.0 / max(temperature, 1e-12) + 2.0 * temperature * mean_ratio
        return float(value), float(gradient)

    def fit(
        self,
        target: np.ndarray,
        mean: np.ndarray,
        variance: np.ndarray,
        use_lbfgs: bool = True,
    ) -> float:
        """Fit ``T`` on validation predictions; returns the fitted temperature."""
        target, mean, variance = self._validate(target, mean, variance)
        if use_lbfgs:
            initial = self.closed_form_temperature(target, mean, variance)
            self.temperature = float(
                abs(
                    minimize_scalar_lbfgs(
                        lambda t: self.objective(t, target, mean, variance),
                        x0=max(initial, 1e-3),
                        max_iter=self.max_iter,
                    )
                )
            )
        else:
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
