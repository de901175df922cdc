"""Vanilla deep ensembles (Lakshminarayanan et al., 2017).

Not part of the paper's Table IV but included as the reference that AWA
approximates: ``M`` independently initialized heteroscedastic models are
trained from scratch and their Gaussian predictions are combined into a
mixture (mean of means; aleatoric = mean of variances; epistemic = variance
of means).  The ablation benchmarks compare its cost and accuracy against
AWA re-training.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.inference import PredictionResult, ensemble_forecast
from repro.core.losses import combined_loss
from repro.core.trainer import Trainer
from repro.data.datasets import TrafficData
from repro.models.base import ForecastModel
from repro.uq.base import UQMethod


class DeepEnsemble(UQMethod):
    """Ensemble of independently trained heteroscedastic AGCRN models."""

    name = "DeepEnsemble"
    paradigm = "ensembling"
    uncertainty_type = "aleatoric + epistemic"
    required_heads = ("mean", "log_var")

    def __init__(self, *args, num_members: int = 3, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if num_members < 2:
            raise ValueError("an ensemble needs at least 2 members")
        self.num_members = num_members
        self.members: List[ForecastModel] = []

    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "DeepEnsemble":
        self._fit_scaler(train_data)
        self.members = []
        loss_fn = lambda output, target: combined_loss(  # noqa: E731
            output["mean"], output["log_var"], target, lambda_weight=self.config.lambda_weight
        )
        for member_index in range(self.num_members):
            self._rng = np.random.default_rng(self.config.seed + 100 + member_index)
            model = self._build_backbone()
            trainer = Trainer(model, self.config, loss_fn, scaler=self.scaler)
            trainer.fit(train_data)
            self.members.append(model)
        self.fitted = True
        return self

    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        from repro.utils.serialization import pack_state_arrays

        state = super().get_state()
        state["meta"]["num_members"] = len(self.members)
        for index, member in enumerate(self.members):
            state["arrays"].update(pack_state_arrays(f"members.{index}.", member.state_dict()))
        return state

    def set_state(self, state: Dict[str, Any]) -> "DeepEnsemble":
        from repro.utils.serialization import unpack_state_arrays

        count = int(state["meta"]["num_members"])
        if count != self.num_members:
            raise ValueError(
                f"state holds {count} ensemble members but this instance was "
                f"configured with num_members={self.num_members}"
            )
        super().set_state(state)
        self.members = []
        for index in range(count):
            member = self._build_backbone()
            member.load_state_dict(unpack_state_arrays(f"members.{index}.", state["arrays"]))
            self.members.append(member)
        return self

    def predict(self, histories: np.ndarray) -> PredictionResult:
        self._check_fitted()
        return ensemble_forecast(self.members, self._scale_inputs(histories), self.scaler)
