"""Trajectory-level analyses: Fig. 8 (interval coverage over time) and
Fig. 9 (uncertainty decomposition over time) on a single road segment."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.evaluation.config import ExperimentScale, make_awa_config, make_training_config
from repro.evaluation.datasets import evaluation_windows, load_benchmark_splits
from repro.metrics import picp
from repro.uq.deepstuq import DeepSTUQ


def _fit_deepstuq(dataset_name: str, scale: ExperimentScale):
    train, val, test = load_benchmark_splits(dataset_name, scale)
    config = make_training_config(scale, dataset_name)
    method = DeepSTUQ(train.num_nodes, config=config, awa_config=make_awa_config(scale))
    method.fit(train, val)
    return method, test


def run_interval_trajectory(
    scale: ExperimentScale,
    dataset_name: str = "PEMS08",
    node: Optional[int] = None,
    horizon_step: int = 0,
    max_points: int = 200,
    seed: int = 0,
) -> Dict:
    """Fig. 8: ground truth, prediction and 95% interval on one road segment.

    Returns the time series (lists) for the selected sensor plus the PICP of
    the plotted stretch.
    """
    method, test = _fit_deepstuq(dataset_name, scale)
    inputs, targets = evaluation_windows(test, scale)
    result = method.predict(inputs)
    rng = np.random.default_rng(seed)
    node = int(rng.integers(test.num_nodes)) if node is None else node
    count = min(max_points, result.mean.shape[0])

    truth = targets[:count, horizon_step, node]
    mean = result.mean[:count, horizon_step, node]
    std = result.std[:count, horizon_step, node]
    lower, upper = mean - 1.96 * std, mean + 1.96 * std
    return {
        "Dataset": dataset_name,
        "node": node,
        "horizon_step": horizon_step,
        "ground_truth": truth.tolist(),
        "prediction": mean.tolist(),
        "lower": lower.tolist(),
        "upper": upper.tolist(),
        "segment_picp": picp(truth, lower, upper),
    }


def run_uncertainty_decomposition(
    scale: ExperimentScale,
    dataset_name: str = "PEMS08",
    node: Optional[int] = None,
    horizon_step: int = 0,
    max_points: int = 72,
    seed: int = 0,
) -> Dict:
    """Fig. 9: total / aleatoric / epistemic uncertainty over a short stretch."""
    method, test = _fit_deepstuq(dataset_name, scale)
    inputs, targets = evaluation_windows(test, scale)
    result = method.predict(inputs)
    rng = np.random.default_rng(seed)
    node = int(rng.integers(test.num_nodes)) if node is None else node
    count = min(max_points, result.mean.shape[0])

    return {
        "Dataset": dataset_name,
        "node": node,
        "horizon_step": horizon_step,
        "ground_truth": targets[:count, horizon_step, node].tolist(),
        "prediction": result.mean[:count, horizon_step, node].tolist(),
        "total_std": result.std[:count, horizon_step, node].tolist(),
        "aleatoric_std": result.aleatoric_std[:count, horizon_step, node].tolist(),
        "epistemic_std": result.epistemic_std[:count, horizon_step, node].tolist(),
        "mean_aleatoric_share": float(
            np.mean(result.aleatoric_var[:count]) / np.mean(result.total_var[:count])
        ),
    }
