"""DeepSTUQ core: the paper's primary contribution.

The unified uncertainty-quantification method is built from

1. the **combined loss** (aleatoric NLL + L1 + weight-decay/KL term,
   Eqs. 8-9, 12, 14) in :mod:`repro.core.losses`;
2. a generic mini-batch **trainer** in :mod:`repro.core.trainer`;
3. **Adaptive Weight Averaging** re-training (Algorithm 1, Eqs. 15-16) in
   :mod:`repro.core.awa`;
4. post-hoc **temperature-scaling calibration** (Eqs. 17-18) in
   :mod:`repro.core.calibration`;
5. **Monte-Carlo inference** and the aleatoric/epistemic decomposition
   (Eqs. 7, 19) in :mod:`repro.core.inference`.

The method that runs these as its three stages is
:class:`repro.uq.DeepSTUQ`.
"""

from repro.core.losses import (
    combined_loss,
    heteroscedastic_gaussian_loss,
    point_l1_loss,
    quantile_loss,
)
from repro.core.trainer import Trainer, TrainingConfig
from repro.core.awa import AWAConfig, AWATrainer
from repro.core.calibration import TemperatureCalibrator
from repro.core.inference import (
    BatchedPredictor,
    PredictionResult,
    deterministic_forecast,
    ensemble_forecast,
    monte_carlo_forecast,
)

__all__ = [
    "heteroscedastic_gaussian_loss",
    "combined_loss",
    "point_l1_loss",
    "quantile_loss",
    "Trainer",
    "TrainingConfig",
    "AWAConfig",
    "AWATrainer",
    "TemperatureCalibrator",
    "BatchedPredictor",
    "PredictionResult",
    "deterministic_forecast",
    "ensemble_forecast",
    "monte_carlo_forecast",
]
