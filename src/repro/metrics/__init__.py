"""Evaluation metrics for point prediction and uncertainty quantification.

Point metrics (paper Section V-D1): MAE, RMSE, MAPE.
Uncertainty metrics (Section V-D2): mean negative log-likelihood (MNLL),
prediction-interval coverage probability (PICP) and mean prediction-interval
width (MPIW), plus the Winkler interval score.
"""

from repro.metrics.point import mae, mape, point_metrics, rmse
from repro.metrics.uncertainty import (
    Z_95,
    conformal_quantile_level,
    interval_bounds,
    mnll,
    mpiw,
    norm_ppf,
    picp,
    uncertainty_metrics,
    winkler_score,
)
from repro.metrics.horizon import per_horizon_metrics, per_horizon_uncertainty

__all__ = [
    "mae",
    "rmse",
    "mape",
    "point_metrics",
    "mnll",
    "picp",
    "mpiw",
    "norm_ppf",
    "Z_95",
    "conformal_quantile_level",
    "interval_bounds",
    "winkler_score",
    "uncertainty_metrics",
    "per_horizon_metrics",
    "per_horizon_uncertainty",
]
