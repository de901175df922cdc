"""Table III runner: point-prediction comparison of the baseline models.

For every (dataset, model) pair a model is trained with the shared training
configuration and evaluated with MAE / RMSE / MAPE on the test split.  The
model zoo matches the columns of paper Table III; ``DeepSTUQ/S`` and
``DeepSTUQ`` are handled by the uncertainty harness and merged by the
benchmark script.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.losses import point_l1_loss
from repro.core.trainer import Trainer, TrainingConfig
from repro.data.datasets import TrafficData
from repro.evaluation.config import ExperimentScale, make_training_config
from repro.evaluation.datasets import evaluation_windows, load_benchmark_splits
from repro.metrics import point_metrics
from repro.models.registry import create_backbone
from repro.models.stfgnn import temporal_similarity_graph

#: Columns of paper Table III handled by this runner (in paper order).
POINT_MODEL_NAMES = ("DCRNN", "ST-GCN", "GWN", "ASTGCN", "STSGCN", "STFGNN", "AGCRN")


def _table3_kwargs(name: str, config: TrainingConfig, train_data: TrafficData) -> Dict[str, Any]:
    """Constructor arguments Table III passes on top of the registry's.

    The registry builds ST-GCN, GWN, ASTGCN, STSGCN and STFGNN at their
    default widths, so Table III passes its widths explicitly; DCRNN and
    AGCRN read theirs from the config.  STFGNN's fusion graph adds a
    temporal-similarity graph built from the training split only.
    """
    if name == "GWN":
        return {"channels": config.hidden_dim, "embed_dim": config.embed_dim}
    if name == "STFGNN":
        return {
            "hidden_channels": config.hidden_dim,
            "temporal_graph": temporal_similarity_graph(train_data.values),
        }
    if name in ("ST-GCN", "ASTGCN", "STSGCN"):
        return {"hidden_channels": config.hidden_dim}
    return {}


def train_and_evaluate_point_model(
    name: str,
    train_data: TrafficData,
    val_data: TrafficData,
    test_data: TrafficData,
    config: TrainingConfig,
    scale: ExperimentScale,
) -> Dict[str, float]:
    """Train one baseline and return its test MAE / RMSE / MAPE."""
    model = create_backbone(
        name,
        train_data.num_nodes,
        config=config,
        adjacency=train_data.network.adjacency_matrix(),
        rng=np.random.default_rng(config.seed),
        **_table3_kwargs(name, config, train_data),
    )
    trainer = Trainer(model, config, lambda output, target: point_l1_loss(output, target))
    trainer.fit(train_data)
    inputs, targets = evaluation_windows(test_data, scale)
    prediction = trainer.scaler.inverse_transform(model.predict(trainer.scaler.transform(inputs)))
    return point_metrics(prediction, targets)


def run_point_prediction(
    scale: ExperimentScale,
    datasets: Optional[Sequence[str]] = None,
    model_names: Sequence[str] = POINT_MODEL_NAMES,
) -> List[Dict]:
    """Regenerate the rows of Table III (one row per dataset/model/metric bundle)."""
    datasets = datasets if datasets is not None else scale.datasets
    rows: List[Dict] = []
    for dataset_name in datasets:
        train, val, test = load_benchmark_splits(dataset_name, scale)
        config = make_training_config(scale, dataset_name)
        for model_name in model_names:
            metrics = train_and_evaluate_point_model(model_name, train, val, test, config, scale)
            rows.append(
                {
                    "Dataset": dataset_name,
                    "Model": model_name,
                    "MAE": metrics["MAE"],
                    "RMSE": metrics["RMSE"],
                    "MAPE": metrics["MAPE"],
                }
            )
    return rows
