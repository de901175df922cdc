"""Table IV runner: uncertainty-quantification comparison.

Every registered UQ method (Table II) is trained on the training split,
calibrated on the validation split where applicable, and scored on the test
split with the six Table IV metrics: MAE, RMSE, MAPE, MNLL, PICP, MPIW.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.awa import AWAConfig
from repro.evaluation.config import ExperimentScale, make_awa_config, make_training_config
from repro.evaluation.datasets import evaluation_windows, load_benchmark_splits
from repro.metrics import point_metrics, uncertainty_metrics
from repro.uq import available_methods, create_method
from repro.uq.base import UQMethod


def evaluate_uq_method(
    method: UQMethod, inputs: np.ndarray, targets: np.ndarray
) -> Dict[str, float]:
    """Score a fitted UQ method on test windows with the Table IV metrics."""
    result = method.predict(inputs)
    metrics = point_metrics(result.mean, targets)
    if method.uncertainty_type == "no":
        metrics.update({"MNLL": float("nan"), "PICP": float("nan"), "MPIW": float("nan")})
        return metrics
    # Distribution-free methods are scored on their own (possibly
    # asymmetric) bounds, not on a Gaussian interval re-centred on the mean.
    if result.has_native_bounds:
        lower, upper = result.lower, result.upper
    else:
        lower, upper = result.interval()
    bundle = uncertainty_metrics(targets, result.mean, result.std, lower=lower, upper=upper)
    if not method.gaussian_likelihood:
        bundle["MNLL"] = float("nan")
    metrics.update(bundle)
    return metrics


def _method_kwargs(name: str, scale: ExperimentScale) -> Dict:
    """Per-method constructor arguments derived from the experiment scale."""
    if name == "DeepSTUQ":
        return {"awa_config": make_awa_config(scale)}
    if name == "FGE":
        return {"num_snapshots": max(2, scale.awa_epochs // 2), "cycle_epochs": 1}
    if name == "DeepEnsemble":
        return {"num_members": 3}
    return {}


def run_uncertainty_quantification(
    scale: ExperimentScale,
    datasets: Optional[Sequence[str]] = None,
    method_names: Optional[Sequence[str]] = None,
    include_extensions: bool = False,
) -> List[Dict]:
    """Regenerate the rows of Table IV.

    Returns one row dict per (dataset, method) pair with all six metrics.
    """
    datasets = datasets if datasets is not None else scale.datasets
    if method_names is None:
        method_names = available_methods(paper_only=not include_extensions)
    rows: List[Dict] = []
    for dataset_name in datasets:
        train, val, test = load_benchmark_splits(dataset_name, scale)
        config = make_training_config(scale, dataset_name)
        inputs, targets = evaluation_windows(test, scale)
        for method_name in method_names:
            method = create_method(
                method_name,
                train.num_nodes,
                config=config,
                **_method_kwargs(method_name, scale),
            )
            method.fit(train, val)
            metrics = evaluate_uq_method(method, inputs, targets)
            row = {"Dataset": dataset_name, "Method": method_name}
            row.update(metrics)
            rows.append(row)
    return rows


def best_method_per_dataset(  # repro: noqa[unused/symbol] results-table helper for users
    rows: Sequence[Dict], metric: str = "MAE", minimize: bool = True
) -> Dict[str, str]:
    """Identify the winning method per dataset for a given metric (ignoring NaNs)."""
    winners: Dict[str, str] = {}
    for dataset in {row["Dataset"] for row in rows}:
        candidates = [
            row for row in rows if row["Dataset"] == dataset and np.isfinite(row.get(metric, float("nan")))
        ]
        if not candidates:
            continue
        chosen = min(candidates, key=lambda r: r[metric]) if minimize else max(candidates, key=lambda r: r[metric])
        winners[dataset] = chosen["Method"]
    return winners
