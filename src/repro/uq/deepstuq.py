"""DeepSTUQ — the paper's unified method (Section IV-D, Algorithm 1).

DeepSTUQ runs in three stages:

1. **pre-training**: the base model with mean / log-variance heads and
   dropout is trained on the training split with the combined loss
   (Eq. 14), estimating aleatoric uncertainty and enabling MC-dropout
   epistemic sampling;
2. **AWA re-training**: the pre-trained model is re-trained with the cyclic
   cosine learning rate of Algorithm 1 while its weights are averaged
   (Eq. 15), approximating a deep ensemble with a single model;
3. **calibration**: a temperature ``T`` is fitted on the validation split as
   the closed-form minimizer of Eq. 18 and applied to the predicted
   aleatoric variance at inference time (Eq. 19b).

:meth:`DeepSTUQ.predict` draws ``N_MC`` Monte-Carlo dropout samples and
decomposes the predictive variance into aleatoric and epistemic parts
(Eqs. 7 and 19); :meth:`DeepSTUQ.predict_single_pass` is DeepSTUQ/S, one
deterministic forward pass at roughly the inference cost of a point model.

The base model is the paper's AGCRN by default, but any backbone registered
in :mod:`repro.models.registry` can be substituted (``backbone="DCRNN"``
plus an adjacency matrix).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.awa import AWAConfig, AWATrainer
from repro.core.calibration import TemperatureCalibrator
from repro.core.inference import PredictionResult, deterministic_forecast, monte_carlo_forecast
from repro.core.losses import combined_loss
from repro.core.trainer import Trainer, TrainingConfig
from repro.data.datasets import TrafficData
from repro.uq.base import UQMethod

#: Monte-Carlo samples behind the validation predictions that stage 3 fits on.
CALIBRATION_MC_SAMPLES = 10


class DeepSTUQ(UQMethod):
    """Unified aleatoric + epistemic UQ with AWA re-training and calibration.

    ``use_awa`` / ``use_calibration`` switch stages 2 and 3 off for the
    paper's ablations (Tables V and VI); :meth:`calibrate` runs stage 3 on
    its own, and :attr:`trainer` exposes the stage-1 trainer so AWA can be
    re-run on it.
    """

    name = "DeepSTUQ"
    paradigm = "Bayesian + ensembling"
    uncertainty_type = "aleatoric + epistemic"
    required_heads = ("mean", "log_var")

    def __init__(
        self,
        num_nodes: int,
        config: Optional[TrainingConfig] = None,
        awa_config: Optional[Union[AWAConfig, Dict[str, Any]]] = None,
        use_awa: bool = True,
        use_calibration: bool = True,
        rng: Optional[np.random.Generator] = None,
        backbone: str = "AGCRN",
        backbone_kwargs: Optional[Dict[str, Any]] = None,
        adjacency=None,
    ) -> None:
        super().__init__(
            num_nodes,
            config,
            rng,
            backbone=backbone,
            backbone_kwargs=backbone_kwargs,
            adjacency=adjacency,
        )
        if isinstance(awa_config, dict):
            awa_config = AWAConfig(**awa_config)
        self.awa_config = awa_config if awa_config is not None else AWAConfig()
        self.use_awa = use_awa
        self.use_calibration = use_calibration
        # Built here rather than in fit, so the weights draw from the
        # generator before anything else does.
        self.model = self._build_backbone()
        self.calibrator = TemperatureCalibrator()
        self.trainer: Optional[Trainer] = None

    @property
    def temperature(self) -> float:
        """The fitted calibration temperature (1.0 before calibration)."""
        return self.calibrator.temperature

    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "DeepSTUQ":
        """Run the three training stages."""
        # Stage 1: pre-training with the combined loss.
        self._fit_scaler(train_data)
        self.trainer = Trainer(
            self.model,
            self.config,
            lambda output, target: combined_loss(
                output["mean"], output["log_var"], target, lambda_weight=self.config.lambda_weight
            ),
            scaler=self.scaler,
        )
        self.trainer.fit(train_data)
        # Stage 2: AWA re-training (ensemble approximation).
        if self.use_awa:
            AWATrainer(self.trainer, self.awa_config).retrain(train_data)
        # Stage 3: temperature-scaling calibration on the validation split.
        if self.use_calibration:
            self.calibrate(val_data)
        self.fitted = True
        return self

    def calibrate(self, val_data: TrafficData) -> float:
        """Fit the calibration temperature on a validation split (Eq. 18)."""
        inputs, targets = self._windows(val_data)
        result = monte_carlo_forecast(
            self.model,
            self._scale_inputs(inputs),
            self.scaler,
            num_samples=CALIBRATION_MC_SAMPLES,
            rng=np.random.default_rng(self.config.seed + 1),
        )
        return self.calibrator.fit(targets, result.mean, np.maximum(result.aleatoric_var, 1e-8))

    def predict(
        self,
        histories: np.ndarray,
        num_samples: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> PredictionResult:
        """Probabilistic forecast for raw (unscaled) history windows.

        Parameters
        ----------
        histories:
            Array of shape ``(batch, history, num_nodes)`` in the original
            data scale.
        num_samples:
            Number of MC dropout samples (defaults to the configured
            ``mc_samples``).
        rng:
            Generator of the dropout masks (defaults to one seeded from the
            configured seed, so repeated calls agree).
        """
        self._check_fitted()
        samples = num_samples if num_samples is not None else self.config.mc_samples
        return monte_carlo_forecast(
            self.model,
            self._scale_inputs(histories),
            self.scaler,
            num_samples=samples,
            temperature=self.calibrator.temperature,
            rng=rng if rng is not None else np.random.default_rng(self.config.seed + 2),
        )

    def predict_single_pass(self, histories: np.ndarray) -> PredictionResult:
        """DeepSTUQ/S: one deterministic forward pass (dropout off; Table III)."""
        self._check_fitted()
        result = deterministic_forecast(self.model, self._scale_inputs(histories), self.scaler)
        return PredictionResult(
            mean=result.mean,
            aleatoric_var=self.calibrator.calibrate_variance(result.aleatoric_var),
            epistemic_var=result.epistemic_var,
        )

    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        """Backbone weights + scaler + calibration temperature."""
        state = super().get_state()
        state["meta"]["temperature"] = self.calibrator.temperature
        state["meta"]["calibrator_fitted"] = self.calibrator.fitted
        return state

    def set_state(self, state: Dict[str, Any]) -> "DeepSTUQ":
        super().set_state(state)
        self.calibrator.temperature = float(state["meta"].get("temperature", 1.0))
        self.calibrator.fitted = bool(state["meta"].get("calibrator_fitted", False))
        return self
