"""Common interface for traffic forecasting models."""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.nn.module import Module, inference
from repro.tensor import Tensor


class ForecastModel(Module):
    """Base class for models mapping a history window to a forecast window.

    Sub-classes implement :meth:`forward` taking a batch of histories with
    shape ``(batch, history, num_nodes)`` and returning either a Tensor of
    shape ``(batch, horizon, num_nodes)`` (deterministic models) or a dict of
    named output heads with that shape (probabilistic models, e.g. ``mean``
    and ``log_var``).

    The class attribute ``requires_adjacency`` declares whether the
    constructor needs a dense road-network adjacency matrix; the backbone
    registry (:mod:`repro.models.registry`) consults it when building models
    from declarative specs.
    """

    #: Whether the constructor takes a dense adjacency matrix as its second argument.
    requires_adjacency: bool = False

    def __init__(self, num_nodes: int, history: int, horizon: int) -> None:
        super().__init__()
        if num_nodes < 1 or history < 1 or horizon < 1:
            raise ValueError("num_nodes, history and horizon must be >= 1")
        self.num_nodes = num_nodes
        self.history = history
        self.horizon = horizon

    # ------------------------------------------------------------------ #
    def _validate_input(self, inputs: Union[np.ndarray, Tensor]) -> Tensor:
        tensor = inputs if isinstance(inputs, Tensor) else Tensor(np.asarray(inputs, dtype=np.float64))
        if tensor.ndim != 3:
            raise ValueError(
                f"expected input of shape (batch, history, num_nodes), got {tensor.shape}"
            )
        if tensor.shape[1] != self.history or tensor.shape[2] != self.num_nodes:
            raise ValueError(
                f"expected (*, {self.history}, {self.num_nodes}), got {tensor.shape}"
            )
        return tensor

    def predict(self, inputs: Union[np.ndarray, Tensor]) -> np.ndarray:
        """Deterministic point forecast as a NumPy array (dropout off, no grad).

        For probabilistic models the ``mean`` head is returned.
        """
        with inference():
            output = self.forward(self._validate_input(inputs))
        if isinstance(output, dict):
            output = output["mean"]
        return output.numpy()
