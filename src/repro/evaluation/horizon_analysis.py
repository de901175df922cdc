"""Per-horizon analyses: Fig. 7 (point metrics) and Fig. 10 (uncertainty)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.losses import point_l1_loss
from repro.core.trainer import Trainer
from repro.evaluation.config import ExperimentScale, make_awa_config, make_training_config
from repro.evaluation.datasets import evaluation_windows, load_benchmark_splits
from repro.metrics import per_horizon_metrics, per_horizon_uncertainty
from repro.models import AGCRN
from repro.uq.deepstuq import DeepSTUQ


def run_horizon_point_analysis(
    scale: ExperimentScale, datasets: Optional[Sequence[str]] = None
) -> List[Dict]:
    """Fig. 7: MAE / RMSE / MAPE per forecast horizon, DeepSTUQ vs AGCRN.

    Returns one record per (dataset, model) holding the metric curves.
    """
    datasets = datasets if datasets is not None else scale.datasets
    records: List[Dict] = []
    for dataset_name in datasets:
        train, val, test = load_benchmark_splits(dataset_name, scale)
        config = make_training_config(scale, dataset_name)
        inputs, targets = evaluation_windows(test, scale)

        # AGCRN point baseline (dashed lines in Fig. 7).
        agcrn = AGCRN(
            train.num_nodes,
            history=config.history,
            horizon=config.horizon,
            hidden_dim=config.hidden_dim,
            embed_dim=config.embed_dim,
            encoder_dropout=config.encoder_dropout,
            decoder_dropout=config.decoder_dropout,
            heads=("mean",),
            rng=np.random.default_rng(config.seed),
        )
        trainer = Trainer(agcrn, config, lambda output, target: point_l1_loss(output, target))
        trainer.fit(train)
        agcrn_prediction = trainer.scaler.inverse_transform(
            agcrn.predict(trainer.scaler.transform(inputs))
        )
        records.append(
            {
                "Dataset": dataset_name,
                "Model": "AGCRN",
                **per_horizon_metrics(agcrn_prediction, targets, interval_minutes=5),
            }
        )

        # DeepSTUQ (solid lines in Fig. 7).
        method = DeepSTUQ(train.num_nodes, config=config, awa_config=make_awa_config(scale))
        method.fit(train, val)
        result = method.predict(inputs)
        records.append(
            {
                "Dataset": dataset_name,
                "Model": "DeepSTUQ",
                **per_horizon_metrics(result.mean, targets, interval_minutes=5),
            }
        )
    return records


def run_horizon_uncertainty_analysis(
    scale: ExperimentScale, datasets: Optional[Sequence[str]] = None
) -> List[Dict]:
    """Fig. 10: mean aleatoric / epistemic uncertainty per forecast horizon."""
    datasets = datasets if datasets is not None else scale.datasets
    records: List[Dict] = []
    for dataset_name in datasets:
        train, val, test = load_benchmark_splits(dataset_name, scale)
        config = make_training_config(scale, dataset_name)
        method = DeepSTUQ(train.num_nodes, config=config, awa_config=make_awa_config(scale))
        method.fit(train, val)
        inputs, _ = evaluation_windows(test, scale)
        result = method.predict(inputs)
        curves = per_horizon_uncertainty(
            result.aleatoric_std, result.epistemic_std, interval_minutes=5
        )
        records.append({"Dataset": dataset_name, **curves})
    return records
