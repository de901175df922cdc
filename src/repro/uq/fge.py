"""Fast Geometric Ensembling (Garipov et al., 2018) — ensembling epistemic UQ.

After a standard pre-training phase, the learning rate is cycled (cosine
down-swing per cycle) and a snapshot of the weights is stored at the end of
every cycle; at test time the stored snapshots are evaluated as an ensemble
whose mean and spread give the forecast and the epistemic uncertainty.
Unlike AWA, all snapshots must be kept in memory — the cost the paper's AWA
re-training removes.  Each snapshot is kept as its own model, as
:class:`~repro.uq.deep_ensemble.DeepEnsemble` keeps its members, so a
prediction reads weights and never loads them.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List

import numpy as np

from repro.core.inference import PredictionResult, deterministic_forecast
from repro.core.losses import point_l1_loss
from repro.core.trainer import Trainer
from repro.data.datasets import TrafficData
from repro.models.base import ForecastModel
from repro.optim import Adam, CyclicCosineLR
from repro.tensor import Tensor
from repro.uq.base import UQMethod


class FGE(UQMethod):
    """Cyclic-learning-rate snapshot ensemble over the AGCRN point model."""

    name = "FGE"
    paradigm = "ensembling"
    uncertainty_type = "epistemic"
    required_heads = ("mean",)

    def __init__(self, *args, num_snapshots: int = 5, cycle_epochs: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if num_snapshots < 2 or cycle_epochs < 1:
            raise ValueError("need at least 2 snapshots and 1 epoch per cycle")
        self.num_snapshots = num_snapshots
        self.cycle_epochs = cycle_epochs
        self.snapshots: List[ForecastModel] = []

    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "FGE":
        self._fit_scaler(train_data)
        self.model = self._build_backbone()
        loss_fn = lambda output, target: point_l1_loss(output, target)  # noqa: E731
        self.trainer = Trainer(self.model, self.config, loss_fn, scaler=self.scaler)
        self.trainer.fit(train_data)

        # Snapshot phase: cycle the learning rate; snapshot at each cycle end.
        loader = self.trainer.make_loader(train_data, shuffle=True)
        optimizer = Adam(
            self.model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        scheduler = CyclicCosineLR(
            optimizer,
            lr_max=self.config.learning_rate,
            lr_min=self.config.learning_rate * 0.01,
            steps_per_epoch=max(len(loader), 1),
        )
        self.snapshots = []
        for _ in range(self.num_snapshots):
            for _ in range(self.cycle_epochs):
                self.model.train()
                for inputs, targets in loader:
                    scheduler.step()
                    optimizer.zero_grad()
                    loss = loss_fn(self.model(Tensor(inputs)), Tensor(targets))
                    loss.backward()
                    if self.config.grad_clip is not None:
                        optimizer.clip_grad_norm(self.config.grad_clip)
                    optimizer.step()
            snapshot = copy.deepcopy(self.model)
            snapshot.zero_grad()  # a snapshot keeps weights, not the last step's gradients
            self.snapshots.append(snapshot)
        self.fitted = True
        return self

    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        from repro.utils.serialization import pack_state_arrays

        state = super().get_state()
        state["meta"]["num_snapshots"] = len(self.snapshots)
        for index, snapshot in enumerate(self.snapshots):
            state["arrays"].update(pack_state_arrays(f"snapshots.{index}.", snapshot.state_dict()))
        return state

    def set_state(self, state: Dict[str, Any]) -> "FGE":
        from repro.utils.serialization import unpack_state_arrays

        super().set_state(state)
        self.snapshots = []
        for index in range(int(state["meta"]["num_snapshots"])):
            snapshot = self._build_backbone()
            snapshot.load_state_dict(unpack_state_arrays(f"snapshots.{index}.", state["arrays"]))
            self.snapshots.append(snapshot)
        return self

    def predict(self, histories: np.ndarray) -> PredictionResult:
        self._check_fitted()
        scaled = self._scale_inputs(histories)
        member_means = [
            deterministic_forecast(snapshot, scaled, self.scaler).mean
            for snapshot in self.snapshots
        ]
        stacked = np.stack(member_means, axis=0)
        mean = stacked.mean(axis=0)
        epistemic = stacked.var(axis=0, ddof=1) if len(member_means) > 1 else np.zeros_like(mean)
        return PredictionResult(
            mean=mean, aleatoric_var=np.zeros_like(mean), epistemic_var=epistemic
        )
