"""Adaptive Weight Averaging (AWA) re-training — paper Algorithm 1.

AWA approximates a deep ensemble with a single stored model:

* even-indexed re-training epochs sweep the learning rate from ``lr1`` down
  to ``lr2`` along a cosine (Eq. 16), letting the model escape its current
  local minimum and settle into a new one;
* odd-indexed epochs fine-tune at the constant small rate ``lr2``; at the end
  of each such epoch the current weights are folded into the running average
  (Eq. 15) and the batch-normalization statistics are re-estimated for the
  averaged weights.

The paper re-trains for 20 epochs, i.e. 10 models are averaged.  Unlike the
original SWA recipe the optimizer is Adam (Section IV-C2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.trainer import Trainer, TrainingConfig
from repro.data.datasets import TrafficData
from repro.models.base import ForecastModel
from repro.nn.normalization import BatchNorm1d
from repro.optim import Adam, CyclicCosineLR, SGD, WeightAverager
from repro.tensor import Tensor, no_grad


@dataclass
class AWAConfig:
    """Hyper-parameters of the AWA re-training stage (paper Section V-B)."""

    epochs: int = 20
    lr_max: float = 3e-3
    lr_min: float = 3e-5
    optimizer: str = "adam"
    grad_clip: Optional[float] = 5.0

    def __post_init__(self) -> None:
        if self.epochs < 2:
            raise ValueError("AWA needs at least 2 re-training epochs")
        if self.optimizer not in {"adam", "sgd"}:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


class AWATrainer:
    """Run Algorithm 1 on a pre-trained model.

    Parameters
    ----------
    trainer:
        The :class:`~repro.core.trainer.Trainer` that pre-trained the model;
        its loss function, scaler and training config are reused so the
        re-training objective is identical (Eq. 14).
    config:
        AWA-specific hyper-parameters.
    """

    def __init__(self, trainer: Trainer, config: Optional[AWAConfig] = None) -> None:
        self.trainer = trainer
        self.config = config if config is not None else AWAConfig()
        self.history: List[Dict[str, float]] = []
        self.learning_rates: List[float] = []

    def _build_optimizer(self, model: ForecastModel):
        weight_decay = self.trainer.config.weight_decay
        if self.config.optimizer == "adam":
            return Adam(model.parameters(), lr=self.config.lr_max, weight_decay=weight_decay)
        return SGD(model.parameters(), lr=self.config.lr_max, momentum=0.9, weight_decay=weight_decay)

    def retrain(self, train_data: TrafficData) -> ForecastModel:
        """Execute the AWA re-training loop and load the averaged weights.

        The model held by the wrapped trainer is updated in place and also
        returned for convenience.
        """
        model = self.trainer.model
        loader = self.trainer.make_loader(train_data, shuffle=True)
        steps_per_epoch = max(len(loader), 1)
        optimizer = self._build_optimizer(model)
        scheduler = CyclicCosineLR(
            optimizer,
            lr_max=self.config.lr_max,
            lr_min=self.config.lr_min,
            steps_per_epoch=steps_per_epoch,
        )
        averager = WeightAverager(model)

        for epoch in range(self.config.epochs):
            model.train()
            epoch_losses = []
            for inputs, targets in loader:
                scheduler.step()
                self.learning_rates.append(optimizer.lr)
                optimizer.zero_grad()
                output = model(Tensor(inputs))
                loss = self.trainer.loss_fn(output, Tensor(targets))
                loss.backward()
                if self.config.grad_clip is not None:
                    optimizer.clip_grad_norm(self.config.grad_clip)
                optimizer.step()
                epoch_losses.append(loss.item())
            self.history.append({"epoch": epoch, "train_loss": float(np.mean(epoch_losses))})

            # Algorithm 1, lines 8-10: average after every fine-tuning (odd) epoch.
            if epoch % 2 == 1:
                averager.update(model)

        if averager.num_models == 0:
            averager.update(model)
        averager.apply_to(model)
        self._recompute_batchnorm(model, loader)
        return model

    def _recompute_batchnorm(self, model: ForecastModel, loader) -> None:
        """Re-estimate batch-norm running statistics for the averaged weights."""
        batchnorms = [m for m in model.modules() if isinstance(m, BatchNorm1d)]
        if not batchnorms:
            return
        for bn in batchnorms:
            bn.reset_running_stats()
        model.train()
        with no_grad():
            for inputs, _ in loader:
                model(Tensor(inputs))
        model.eval()
