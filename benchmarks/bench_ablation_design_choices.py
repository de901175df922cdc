"""Extension ablations for the design choices called out in DESIGN.md.

* combined-loss weight lambda (Eq. 9): pure-NLL vs L1-dominated training;
* Adam vs SGD inside the AWA re-training stage (the paper asserts Adam works
  better than the SGD of the original SWA recipe).

These go beyond the paper's own ablation tables and run on PEMS08 only to
keep the benchmark suite fast.
"""

import numpy as np

from repro.core.awa import AWAConfig, AWATrainer
from repro.evaluation import format_rows, make_training_config, run_lambda_ablation
from repro.evaluation.datasets import evaluation_windows, load_benchmark_splits
from repro.metrics import point_metrics
from repro.uq import DeepSTUQ


def test_ablation_lambda_weight(benchmark, save_result, scale):
    rows = benchmark.pedantic(
        lambda: run_lambda_ablation(scale, dataset_name="PEMS08", lambda_values=(0.01, 0.1, 1.0)),
        rounds=1,
        iterations=1,
    )
    text = format_rows(rows, title="Ablation: combined-loss weight lambda (PEMS08)")
    save_result("ablation_lambda", text)
    assert len(rows) == 3
    assert all(np.isfinite(row["MAE"]) and np.isfinite(row["MNLL"]) for row in rows)


def test_ablation_awa_optimizer(benchmark, save_result, scale):
    """Compare Adam vs SGD as the AWA re-training optimizer (paper Section IV-C2)."""

    def run():
        results = []
        for optimizer_name in ("adam", "sgd"):
            train, val, test = load_benchmark_splits("PEMS08", scale)
            config = make_training_config(scale, "PEMS08")
            method = DeepSTUQ(train.num_nodes, config=config, use_awa=False, use_calibration=False)
            method.fit(train, val)
            awa = AWATrainer(method.trainer, AWAConfig(epochs=scale.awa_epochs, optimizer=optimizer_name))
            awa.retrain(train)
            inputs, targets = evaluation_windows(test, scale)
            metrics = point_metrics(method.predict(inputs).mean, targets)
            results.append({"AWA optimizer": optimizer_name, **metrics})
        return results

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_rows(rows, title="Ablation: Adam vs SGD inside AWA re-training (PEMS08)")
    save_result("ablation_awa_optimizer", text)
    assert {row["AWA optimizer"] for row in rows} == {"adam", "sgd"}
    assert all(np.isfinite(row["MAE"]) for row in rows)
