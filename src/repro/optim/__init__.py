"""Optimizers, learning-rate schedulers and weight-averaging utilities.

Contains everything the DeepSTUQ training recipe needs: Adam (pre-training
and AWA re-training), SGD (for comparison, the original SWA paper uses it),
the cyclic cosine learning-rate schedule of AWA (paper Eq. 16) and the
running weight average (paper Eq. 15).  The calibration temperature needs no
optimizer: Eq. 18 has a closed-form minimizer
(:class:`~repro.core.calibration.TemperatureCalibrator`).
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.lr_scheduler import CyclicCosineLR, LRScheduler
from repro.optim.swa import WeightAverager

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "LRScheduler",
    "CyclicCosineLR",
    "WeightAverager",
]
