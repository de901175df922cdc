"""Optimizers, learning-rate schedulers and weight-averaging utilities.

Contains everything the DeepSTUQ training recipe needs: Adam (pre-training
and AWA re-training), SGD (for comparison, the original SWA paper uses it),
L-BFGS (temperature-scaling calibration), the cyclic cosine learning-rate
schedule of AWA (paper Eq. 16) and the running weight average (paper Eq. 15).
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.lbfgs import minimize_scalar_lbfgs
from repro.optim.lr_scheduler import CyclicCosineLR, LRScheduler
from repro.optim.swa import WeightAverager

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "minimize_scalar_lbfgs",
    "LRScheduler",
    "CyclicCosineLR",
    "WeightAverager",
]
