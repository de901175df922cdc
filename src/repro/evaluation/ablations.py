"""Ablation runners: Tables V / VI and Fig. 11, plus extra design-choice ablations.

* :func:`run_awa_ablation` — point metrics of the same pre-trained model
  before vs after AWA re-training (Table V).
* :func:`run_calibration_ablation` — uncertainty metrics of the same model
  before vs after temperature-scaling calibration (Table VI).
* :func:`run_mc_sample_ablation` — point metrics as a function of the number
  of Monte-Carlo samples (Fig. 11).
* :func:`run_lambda_ablation` — sensitivity to the combined-loss weight
  (extension ablation listed in DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.awa import AWATrainer
from repro.evaluation.config import ExperimentScale, make_awa_config, make_training_config
from repro.evaluation.datasets import evaluation_windows, load_benchmark_splits
from repro.metrics import point_metrics, uncertainty_metrics
from repro.uq.deepstuq import DeepSTUQ


def _fit_deepstuq(
    dataset_name: str,
    scale: ExperimentScale,
    use_awa: bool,
    use_calibration: bool,
    lambda_weight: Optional[float] = None,
):
    """Train a DeepSTUQ variant and return (method, test windows)."""
    train, val, test = load_benchmark_splits(dataset_name, scale)
    config = make_training_config(scale, dataset_name)
    if lambda_weight is not None:
        config.lambda_weight = lambda_weight
    method = DeepSTUQ(
        train.num_nodes,
        config=config,
        awa_config=make_awa_config(scale),
        use_awa=use_awa,
        use_calibration=use_calibration,
    )
    method.fit(train, val)
    inputs, targets = evaluation_windows(test, scale)
    return method, inputs, targets


def run_awa_ablation(scale: ExperimentScale, datasets: Optional[Sequence[str]] = None) -> List[Dict]:
    """Table V: point metrics of the pre-trained model before and after AWA.

    A single DeepSTUQ model is pre-trained and evaluated, then AWA
    re-training runs and the same model is evaluated again, exactly mirroring
    the paper's "No AWA" vs "AWA" comparison.
    """
    datasets = datasets if datasets is not None else scale.datasets
    rows: List[Dict] = []
    for dataset_name in datasets:
        train, val, test = load_benchmark_splits(dataset_name, scale)
        config = make_training_config(scale, dataset_name)
        method = DeepSTUQ(train.num_nodes, config=config, use_awa=False, use_calibration=False)
        method.fit(train, val)
        inputs, targets = evaluation_windows(test, scale)

        before = point_metrics(method.predict(inputs).mean, targets)
        AWATrainer(method.trainer, make_awa_config(scale)).retrain(train)
        after = point_metrics(method.predict(inputs).mean, targets)

        for metric in ("MAE", "RMSE", "MAPE"):
            rows.append(
                {
                    "Dataset": dataset_name,
                    "Metric": metric,
                    "No AWA": before[metric],
                    "AWA": after[metric],
                }
            )
    return rows


def run_calibration_ablation(
    scale: ExperimentScale, datasets: Optional[Sequence[str]] = None
) -> List[Dict]:
    """Table VI: MNLL / PICP / MPIW before and after temperature calibration."""
    datasets = datasets if datasets is not None else scale.datasets
    rows: List[Dict] = []
    for dataset_name in datasets:
        train, val, test = load_benchmark_splits(dataset_name, scale)
        config = make_training_config(scale, dataset_name)
        method = DeepSTUQ(
            train.num_nodes,
            config=config,
            awa_config=make_awa_config(scale),
            use_calibration=False,
        )
        method.fit(train, val)
        inputs, targets = evaluation_windows(test, scale)

        uncalibrated = method.predict(inputs)
        before = uncertainty_metrics(targets, uncalibrated.mean, uncalibrated.std)
        method.calibrate(val)
        calibrated = method.predict(inputs)
        after = uncertainty_metrics(targets, calibrated.mean, calibrated.std)

        for metric in ("MNLL", "PICP", "MPIW"):
            rows.append(
                {
                    "Dataset": dataset_name,
                    "Metric": metric,
                    "No Calibration": before[metric],
                    "Calibration": after[metric],
                    "Temperature": method.temperature,
                }
            )
    return rows


def run_mc_sample_ablation(
    scale: ExperimentScale,
    dataset_name: str = "PEMS08",
    sample_counts: Sequence[int] = (1, 3, 5, 10, 15),
) -> List[Dict]:
    """Fig. 11: point metrics of DeepSTUQ vs the number of MC samples."""
    method, inputs, targets = _fit_deepstuq(dataset_name, scale, use_awa=True, use_calibration=True)
    rows: List[Dict] = []
    for count in sample_counts:
        result = method.predict(inputs, num_samples=count, rng=np.random.default_rng(1234))
        metrics = point_metrics(result.mean, targets)
        rows.append(
            {
                "Dataset": dataset_name,
                "MC samples": count,
                "MAE": metrics["MAE"],
                "RMSE": metrics["RMSE"],
                "MAPE": metrics["MAPE"],
            }
        )
    return rows


def run_lambda_ablation(
    scale: ExperimentScale,
    dataset_name: str = "PEMS08",
    lambda_values: Sequence[float] = (0.01, 0.1, 0.5, 1.0),
) -> List[Dict]:
    """Extension ablation: sensitivity of DeepSTUQ to the combined-loss weight."""
    rows: List[Dict] = []
    for lambda_weight in lambda_values:
        method, inputs, targets = _fit_deepstuq(
            dataset_name, scale, use_awa=False, use_calibration=True, lambda_weight=lambda_weight
        )
        result = method.predict(inputs)
        point = point_metrics(result.mean, targets)
        interval = uncertainty_metrics(targets, result.mean, result.std)
        rows.append(
            {
                "Dataset": dataset_name,
                "lambda": lambda_weight,
                "MAE": point["MAE"],
                "MNLL": interval["MNLL"],
                "PICP": interval["PICP"],
            }
        )
    return rows
