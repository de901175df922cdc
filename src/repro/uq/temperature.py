"""Temperature Scaling baseline (Guo et al., 2017) applied to MVE.

An MVE model is trained as usual, then a single temperature parameter is
fitted on the validation split (Eqs. 17-18) and applied to the predicted
variance at test time — the "TS" row of Table IV.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.calibration import TemperatureCalibrator
from repro.core.inference import PredictionResult
from repro.data.datasets import TrafficData
from repro.uq.mve import MVE


class TemperatureScaledMVE(MVE):
    """MVE whose aleatoric variance is calibrated with temperature scaling."""

    name = "TS"
    paradigm = "frequentist"
    uncertainty_type = "aleatoric"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calibrator = TemperatureCalibrator()

    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "TemperatureScaledMVE":
        super().fit(train_data, val_data)
        inputs, targets = self._windows(val_data)
        uncalibrated = super().predict(inputs)
        self.calibrator.fit(
            targets, uncalibrated.mean, np.maximum(uncalibrated.aleatoric_var, 1e-8)
        )
        return self

    def predict(self, histories: np.ndarray) -> PredictionResult:
        result = super().predict(histories)
        return PredictionResult(
            mean=result.mean,
            aleatoric_var=self.calibrator.calibrate_variance(result.aleatoric_var),
            epistemic_var=result.epistemic_var,
        )

    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        state = super().get_state()
        state["meta"]["temperature"] = self.calibrator.temperature
        state["meta"]["calibrator_fitted"] = self.calibrator.fitted
        return state

    def set_state(self, state: Dict[str, Any]) -> "TemperatureScaledMVE":
        super().set_state(state)
        self.calibrator.temperature = float(state["meta"]["temperature"])
        self.calibrator.fitted = bool(state["meta"].get("calibrator_fitted", True))
        return self
