"""Dropout with Monte-Carlo (test-time) behaviour.

The DeepSTUQ paper uses *MC dropout* (Gal & Ghahramani, 2016): the same
Bernoulli masking applied during training is kept active at inference so that
repeated stochastic forward passes approximate samples from the weight
posterior.  :class:`Dropout` is on in training mode and off in eval mode, like
any dropout layer.  Prediction runs inside :func:`repro.nn.inference`
instead, which decides for the calling thread only: ``inference()`` turns
dropout off, and ``inference(streams)`` keeps it on and draws the masks from
``streams`` rather than from the layer's own generator.  The layer itself is
never switched, so concurrent predictions over one model cannot see each
other's masks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, in_inference, inference_streams
from repro.tensor import Tensor
from repro.tensor.functional import dropout_mask


class Dropout(Module):
    """Inverted dropout: zero activations with probability ``rate`` and rescale.

    Parameters
    ----------
    rate:
        Probability of dropping an activation; must lie in ``[0, 1)``.
    rng:
        Generator of the training-mode masks, so training is seedable.
    """

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if in_inference():
            streams = inference_streams()
        else:
            streams = self._rng if self.training else None
        if streams is None or self.rate == 0.0:
            return x
        return x * Tensor(dropout_mask(x.shape, self.rate, streams))

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate})"
