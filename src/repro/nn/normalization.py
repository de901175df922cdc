"""Normalization layers: batch normalization and layer normalization.

Batch normalization is required by the AWA re-training procedure (paper
Algorithm 1 performs a batch-norm statistics update after each weight
averaging step) and by several convolutional baselines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter, in_inference
from repro.tensor import Tensor


class BatchNorm1d(Module):
    """Normalize the last (feature) axis over all leading axes.

    Running estimates of mean and variance are maintained with exponential
    smoothing for use in evaluation mode and inside
    :func:`~repro.nn.inference`; :meth:`reset_running_stats` clears
    them, which is what the AWA re-training loop calls before re-estimating
    statistics for the averaged weights.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self.num_batches_tracked = 0

    def reset_running_stats(self) -> None:
        self.running_mean = np.zeros(self.num_features)
        self.running_var = np.ones(self.num_features)
        self.num_batches_tracked = 0

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expected {self.num_features} features, got shape {x.shape}"
            )
        if self.training and not in_inference():
            axes = tuple(range(x.ndim - 1))
            batch_mean = x.data.mean(axis=axes)
            batch_var = x.data.var(axis=axes)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * batch_var
            self.num_batches_tracked += 1
            mean, var = batch_mean, batch_var
        else:
            mean, var = self.running_mean, self.running_var
        normalized = (x - Tensor(mean)) / Tensor(np.sqrt(var + self.eps))
        return normalized * self.gamma + self.beta


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"LayerNorm expected {self.num_features} features, got shape {x.shape}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalized = (x - mean) / (var + self.eps).sqrt()
        return normalized * self.gamma + self.beta
