"""Learning-rate schedulers.

:class:`CyclicCosineLR` implements the Adaptive Weight Averaging schedule of
the paper (Eq. 16 and Fig. 5): during *even* re-training epochs the learning
rate decays from ``lr_max`` to ``lr_min`` along a cosine; during *odd* epochs
it is held constant at ``lr_min`` while the model is fine-tuned before its
weights are folded into the running average.
"""

from __future__ import annotations

import math
from typing import List

from repro.optim.optimizer import Optimizer


class LRScheduler:
    """Base class: tracks an optimizer and rewrites its ``lr`` each step."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_step = 0

    def get_lr(self, step: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        """Advance one step and apply the new learning rate; returns it."""
        self.last_step += 1
        lr = self.get_lr(self.last_step)
        self.optimizer.lr = lr
        return lr

    def trace(self, num_steps: int) -> List[float]:
        """Return the lr values for steps ``1..num_steps`` without applying them."""
        return [self.get_lr(step) for step in range(1, num_steps + 1)]


class CyclicCosineLR(LRScheduler):
    """AWA re-training schedule (paper Eq. 16, Fig. 5).

    Parameters
    ----------
    optimizer:
        Optimizer whose learning rate is driven by the schedule.
    lr_max, lr_min:
        Maximum (``lr1``) and minimum (``lr2``) learning rates.
    steps_per_epoch:
        Number of optimizer steps (batches) per epoch, ``n_iteration`` in the
        paper.

    Within an even-indexed epoch (0, 2, 4, ...) the learning rate follows
    ``lr = lr2 + 0.5 (lr1 - lr2)(1 + cos(pi * i / n_iteration))`` where ``i``
    is the iteration index inside the epoch; within an odd-indexed epoch the
    learning rate is held at ``lr2``.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        lr_max: float,
        lr_min: float,
        steps_per_epoch: int,
    ) -> None:
        super().__init__(optimizer)
        if lr_max <= 0 or lr_min <= 0:
            raise ValueError("learning rates must be positive")
        if lr_min > lr_max:
            raise ValueError("lr_min must not exceed lr_max")
        if steps_per_epoch < 1:
            raise ValueError("steps_per_epoch must be >= 1")
        self.lr_max = lr_max
        self.lr_min = lr_min
        self.steps_per_epoch = steps_per_epoch

    def epoch_of(self, step: int) -> int:
        """Epoch index (0-based) containing the 1-based step."""
        return (step - 1) // self.steps_per_epoch

    def get_lr(self, step: int) -> float:
        epoch = self.epoch_of(step)
        iteration = (step - 1) % self.steps_per_epoch
        if epoch % 2 == 0:
            progress = iteration / max(self.steps_per_epoch - 1, 1)
            return self.lr_min + 0.5 * (self.lr_max - self.lr_min) * (1.0 + math.cos(math.pi * progress))
        return self.lr_min
