"""Quantile-regression baseline (distribution-free aleatoric uncertainty).

Three output heads predict the 2.5%, 50% and 97.5% quantiles directly by
minimizing the pinball loss (Koenker & Hallock, 2001); the 95% prediction
interval is the (lower, upper) pair and the point forecast is the median.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.inference import PredictionResult, _batched_forward
from repro.core.losses import quantile_loss
from repro.core.trainer import Trainer
from repro.data.datasets import TrafficData
from repro.nn import inference
from repro.uq.base import UQMethod

#: Head name -> quantile level (paper Section V-C2).
QUANTILES: Dict[str, float] = {"lower": 0.025, "mean": 0.5, "upper": 0.975}

#: z-score equivalent of the 97.5% quantile, used to express the interval as
#: a pseudo standard deviation so that the shared metric code can consume it.
_Z_95 = 1.959963984540054


class QuantileRegression(UQMethod):
    """AGCRN with three quantile heads trained with the pinball loss."""

    name = "Quantile"
    paradigm = "distribution-free"
    uncertainty_type = "aleatoric"
    gaussian_likelihood = False
    required_heads = ("lower", "mean", "upper")

    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "QuantileRegression":
        self._fit_scaler(train_data)
        self.model = self._build_backbone()
        self.trainer = Trainer(
            self.model,
            self.config,
            lambda output, target: quantile_loss(output, target, QUANTILES),
            scaler=self.scaler,
        )
        self.trainer.fit(train_data)
        self.fitted = True
        return self

    def predict(self, histories: np.ndarray) -> PredictionResult:
        self._check_fitted()
        scaled_inputs = self._scale_inputs(histories)
        with inference():
            outputs = _batched_forward(self.model, scaled_inputs, batch_size=256)
        mean = self.scaler.inverse_transform(outputs["mean"])
        lower = self.scaler.inverse_transform(outputs["lower"])
        upper = self.scaler.inverse_transform(outputs["upper"])
        # Guard against quantile crossing, then express the interval half-width
        # as a pseudo sigma so downstream interval code can reuse mean +- 1.96 s;
        # the native (asymmetric) bounds ride along for bound-aware consumers
        # such as the streaming conformal layer.
        lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
        pseudo_std = np.maximum((upper - lower) / (2.0 * _Z_95), 0.0)
        return PredictionResult(
            mean=mean,
            aleatoric_var=pseudo_std ** 2,
            epistemic_var=np.zeros_like(mean),
            lower=lower,
            upper=upper,
        )
