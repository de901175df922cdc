"""Monte-Carlo dropout (Gal & Ghahramani, 2016) — Bayesian epistemic UQ.

The point-forecasting AGCRN is trained with an L1 loss and dropout; at test
time dropout stays active and ``N_MC`` stochastic forward passes approximate
samples from the weight posterior.  Only the epistemic variance (spread of
the sampled means) is quantified, which — as Table IV shows — drastically
under-covers the ground truth because traffic uncertainty is dominated by
the aleatoric component.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.inference import PredictionResult, monte_carlo_forecast
from repro.core.losses import point_l1_loss
from repro.core.trainer import Trainer
from repro.data.datasets import TrafficData
from repro.uq.base import UQMethod


class MCDropout(UQMethod):
    """AGCRN point model with test-time dropout sampling."""

    name = "MCDO"
    paradigm = "Bayesian"
    uncertainty_type = "epistemic"
    required_heads = ("mean",)

    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "MCDropout":
        self._fit_scaler(train_data)
        self.model = self._build_backbone()
        self.trainer = Trainer(
            self.model,
            self.config,
            lambda output, target: point_l1_loss(output, target),
            scaler=self.scaler,
        )
        self.trainer.fit(train_data)
        self.fitted = True
        return self

    def predict(self, histories: np.ndarray, num_samples: Optional[int] = None) -> PredictionResult:
        self._check_fitted()
        samples = num_samples if num_samples is not None else self.config.mc_samples
        return monte_carlo_forecast(
            self.model,
            self._scale_inputs(histories),
            self.scaler,
            num_samples=samples,
            rng=np.random.default_rng(self.config.seed + 10),
        )
