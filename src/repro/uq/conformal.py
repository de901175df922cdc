"""Locally-weighted conformal inference (Lei et al., 2018).

An MVE model provides the point forecast and a per-point scale estimate
``sigma(x)``; the calibration (validation) split supplies nonconformity
scores ``r_i = |y_i - mu(x_i)| / sigma(x_i)``, whose finite-sample-corrected
``(1 - alpha)`` quantile ``q`` defines the conformalized interval
``mu(x) +- q * sigma(x)``.  The resulting coverage guarantee is
distribution-free, but the interval is reported through the shared Gaussian
interface by converting the half-width back into a pseudo standard deviation.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.inference import PredictionResult
from repro.data.datasets import TrafficData
from repro.metrics.uncertainty import Z_95, conformal_quantile_level
from repro.uq.mve import MVE


class LocallyWeightedConformal(MVE):
    """MVE conformalized on the validation split."""

    name = "Conformal"
    paradigm = "frequentist"
    uncertainty_type = "aleatoric"

    def __init__(self, *args, significance: float = 0.05, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must lie in (0, 1)")
        self.significance = significance
        self.conformal_quantile = 1.0

    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "LocallyWeightedConformal":
        super().fit(train_data, val_data)
        inputs, targets = self._windows(val_data)
        result = super().predict(inputs)
        sigma = np.maximum(result.aleatoric_std, 1e-6)
        scores = np.abs(targets - result.mean) / sigma  # (B, H, N)
        level = conformal_quantile_level(scores.size, self.significance)
        self.conformal_quantile = float(np.quantile(scores.reshape(-1), level))
        return self

    def predict(self, histories: np.ndarray) -> PredictionResult:
        result = super().predict(histories)
        # Interval half-width is q * sigma; store it as a pseudo std so that
        # mean +- 1.96 * std reproduces the conformal interval.
        pseudo_std = self.conformal_quantile * result.aleatoric_std / Z_95
        return result.replace_interval_std(pseudo_std)

    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        state = super().get_state()
        state["meta"]["conformal_quantile"] = self.conformal_quantile
        return state

    def set_state(self, state: Dict[str, Any]) -> "LocallyWeightedConformal":
        super().set_state(state)
        self.conformal_quantile = float(state["meta"]["conformal_quantile"])
        return self
