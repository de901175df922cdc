"""Combined aleatoric + epistemic estimation (Kendall & Gal, 2017).

Mean / log-variance heads are trained with the combined loss (Eq. 14) and at
test time MC dropout sampling decomposes the predictive variance into the
mean of the predicted variances (aleatoric) plus the variance of the
predicted means (epistemic) — i.e. DeepSTUQ *without* AWA re-training and
without calibration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.inference import PredictionResult, monte_carlo_forecast
from repro.core.losses import combined_loss
from repro.core.trainer import Trainer
from repro.data.datasets import TrafficData
from repro.uq.base import UQMethod


class Combined(UQMethod):
    """Heteroscedastic heads + MC dropout at inference."""

    name = "Combined"
    paradigm = "Bayesian"
    uncertainty_type = "aleatoric + epistemic"
    required_heads = ("mean", "log_var")

    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "Combined":
        self._fit_scaler(train_data)
        self.model = self._build_backbone()
        self.trainer = Trainer(
            self.model,
            self.config,
            lambda output, target: combined_loss(
                output["mean"], output["log_var"], target, lambda_weight=self.config.lambda_weight
            ),
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
            rng=np.random.default_rng(self.config.seed + 11),
        )
