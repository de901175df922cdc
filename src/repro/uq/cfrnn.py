"""CFRNN — Conformal Forecasting RNN (Stankeviciute et al., NeurIPS 2021).

A plain (graph-free) GRU forecaster is trained on the multivariate series;
multi-horizon prediction intervals are obtained by conformal prediction with
a Bonferroni-style split of the miscoverage budget across horizon steps: for
each step ``h`` the interval half-width is the corrected quantile of the
absolute calibration residuals at that step.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro import nn
from repro.core.inference import PredictionResult, _batched_forward
from repro.core.losses import point_l1_loss
from repro.core.trainer import Trainer
from repro.data.datasets import TrafficData
from repro.metrics.uncertainty import Z_95, conformal_quantile_level
from repro.models.base import ForecastModel
from repro.tensor import Tensor
from repro.uq.base import UQMethod


class _VectorGRUForecaster(ForecastModel):
    """GRU over the full sensor vector (no graph structure)."""

    def __init__(self, num_nodes: int, history: int, horizon: int, hidden_dim: int, rng=None):
        super().__init__(num_nodes, history, horizon)
        self.gru = nn.GRU(num_nodes, hidden_dim, rng=rng)
        self.head = nn.Linear(hidden_dim, horizon * num_nodes, rng=rng)

    def forward(self, x) -> Tensor:
        x = self._validate_input(x)
        _, final = self.gru(x)
        out = self.head(final)
        return out.reshape(x.shape[0], self.horizon, self.num_nodes)


class CFRNN(UQMethod):
    """Graph-free GRU + per-horizon conformal intervals."""

    name = "CFRNN"
    paradigm = "distribution-free"
    uncertainty_type = "aleatoric"
    gaussian_likelihood = False
    required_heads = ("mean",)

    def __init__(self, *args, significance: float = 0.05, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # CFRNN's identity *is* its graph-free GRU: it never builds the shared
        # backbone, so a requested alternative would be silently ignored.
        if self.backbone_name != "AGCRN":
            raise ValueError(
                "CFRNN defines its own graph-free GRU forecaster and does not "
                f"use the shared backbone; backbone={self.backbone_name!r} is "
                "not supported (leave the default)"
            )
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must lie in (0, 1)")
        self.significance = significance
        self.horizon_widths: Optional[np.ndarray] = None

    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "CFRNN":
        self._fit_scaler(train_data)
        self.model = _VectorGRUForecaster(
            self.num_nodes,
            self.config.history,
            self.config.horizon,
            hidden_dim=self.config.hidden_dim,
            rng=self._rng,
        )
        self.trainer = Trainer(
            self.model,
            self.config,
            lambda output, target: point_l1_loss(output, target),
            scaler=self.scaler,
        )
        self.trainer.fit(train_data)

        # Conformal calibration: per-horizon quantile of absolute residuals,
        # with the miscoverage budget split evenly across the horizon steps.
        inputs, targets = self._windows(val_data)
        predictions = self._point_forecast(inputs)
        residuals = np.abs(targets - predictions)  # (B, H, N)
        level = conformal_quantile_level(
            residuals.shape[0] * residuals.shape[2], self.significance / self.config.horizon
        )
        self.horizon_widths = np.array(
            [np.quantile(residuals[:, step, :].reshape(-1), level) for step in range(self.config.horizon)]
        )
        self.fitted = True
        return self

    def _point_forecast(self, histories: np.ndarray) -> np.ndarray:
        with nn.inference():
            outputs = _batched_forward(self.model, self._scale_inputs(histories), batch_size=256)
        return self.scaler.inverse_transform(outputs["mean"])

    # ------------------------------------------------------------------ #
    def _make_model_for_state(self) -> _VectorGRUForecaster:
        return _VectorGRUForecaster(
            self.num_nodes,
            self.config.history,
            self.config.horizon,
            hidden_dim=self.config.hidden_dim,
            rng=self._rng,
        )

    def get_state(self) -> Dict[str, Any]:
        state = super().get_state()
        state["arrays"]["horizon_widths"] = np.asarray(self.horizon_widths)
        return state

    def set_state(self, state: Dict[str, Any]) -> "CFRNN":
        super().set_state(state)
        self.horizon_widths = np.asarray(state["arrays"]["horizon_widths"], dtype=np.float64)
        return self

    def predict(self, histories: np.ndarray) -> PredictionResult:
        self._check_fitted()
        mean = self._point_forecast(histories)
        widths = self.horizon_widths.reshape(1, -1, 1)  # (1, H, 1) broadcast over batch/nodes
        pseudo_std = np.broadcast_to(widths / Z_95, mean.shape).copy()
        # Native per-horizon conformal bounds: symmetric about the point
        # forecast here, but carried as explicit bounds so the streaming
        # conformal layer calibrates them with additive (CQR) margins rather
        # than re-deriving a multiplier on the pseudo std.
        half = np.broadcast_to(widths, mean.shape)
        return PredictionResult(
            mean=mean,
            aleatoric_var=pseudo_std ** 2,
            epistemic_var=np.zeros_like(mean),
            lower=mean - half,
            upper=mean + half,
        )
