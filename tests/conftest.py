"""Shared pytest fixtures for the DeepSTUQ reproduction test-suite."""

import numpy as np
import pytest

from repro.tensor import Tensor


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator shared by tests."""
    return np.random.default_rng(seed=1234)


def _fingerprint(value):
    """A value's identity plus whatever it holds that a forward could write."""
    if isinstance(value, Tensor):
        return ("tensor", id(value), value.data.tobytes(), id(value.grad))
    if isinstance(value, np.ndarray):
        return ("array", id(value), value.tobytes())
    if isinstance(value, np.random.Generator):
        return ("rng", id(value), repr(value.bit_generator.state))
    if isinstance(value, dict):
        return ("dict", id(value), tuple((key, id(item)) for key, item in value.items()))
    if isinstance(value, (bool, int, float, str, type(None))):
        return ("scalar", value)
    return ("object", id(value))


def module_state(*roots):
    """Every module's ``vars()`` under ``roots``, fingerprinted for comparison."""
    return [
        {name: _fingerprint(value) for name, value in vars(module).items()}
        for root in roots
        for module in root.modules()
    ]


@pytest.fixture
def module_state_of():
    """:func:`module_state`: equal before and after a call that writes no module."""
    return module_state
