"""Weight initialization schemes.

All initializers take an ``rng`` (``numpy.random.Generator``) so that model
construction is fully reproducible; layers create their own default generator
when none is supplied.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (used for biases)."""
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)


def uniform(
    shape: Tuple[int, ...], low: float = -0.1, high: float = 0.1, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    return _rng(rng).uniform(low, high, size=shape)


def normal(
    shape: Tuple[int, ...], mean: float = 0.0, std: float = 0.01, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    return _rng(rng).normal(mean, std, size=shape)


def _fan_in_fan_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in / fan-out for a weight tensor.

    For 2-D weights the convention is ``(fan_in, fan_out) = shape``; for
    higher-rank weights the trailing two dimensions are treated as the
    linear map and the leading dimensions as receptive field.
    """
    if len(shape) < 2:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    fan_in = shape[-2] * receptive
    fan_out = shape[-1] * receptive
    return fan_in, fan_out


def xavier_uniform(
    shape: Tuple[int, ...], gain: float = 1.0, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = _fan_in_fan_out(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return _rng(rng).uniform(-bound, bound, size=shape)
