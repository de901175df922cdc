"""Quickstart: train DeepSTUQ on a synthetic PEMS08 dataset and forecast with
uncertainty, through the unified ``repro.api`` facade.

Run with::

    python examples/quickstart.py          # a few minutes (small preset)
    python examples/quickstart.py --fast   # under a minute (tiny preset)

The script walks through the full public API:

1. load a (synthetic) PEMS dataset and split it chronologically 6:2:2;
2. describe the forecaster as one declarative, JSON-round-trippable spec
   (UQ method + backbone + training config) and fit it in one call
   (pre-training -> AWA re-training -> temperature calibration);
3. produce probabilistic forecasts on the test split;
4. save a full-state checkpoint, reload it, and verify the restored
   forecaster reproduces the predictions bit-identically;
5. report the paper's point and uncertainty metrics.

The method itself is available when you need stage-level control::

    from repro.core import TrainingConfig
    from repro.uq import DeepSTUQ
    method = DeepSTUQ(traffic.num_nodes, config=TrainingConfig(...), use_calibration=False)
    method.fit(train, val); method.calibrate(val); result, targets = method.predict_on(test)
"""

from __future__ import annotations

import argparse
import tempfile

import numpy as np

from repro.api import Forecaster
from repro.data import load_pems, train_val_test_split
from repro.metrics import point_metrics, uncertainty_metrics
from repro.utils import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="PEMS08", help="PEMS03 / PEMS04 / PEMS07 / PEMS08")
    parser.add_argument("--fast", action="store_true", help="tiny dataset and very short training")
    parser.add_argument("--epochs", type=int, default=None, help="override the number of pre-training epochs")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    size = "tiny" if args.fast else "small"
    epochs = args.epochs if args.epochs is not None else (4 if args.fast else 15)

    print(f"Loading synthetic {args.dataset} ({size}) ...")
    traffic = load_pems(args.dataset, size=size)
    train, val, test = train_val_test_split(traffic)
    print(f"  {traffic.num_nodes} sensors, {traffic.num_steps} five-minute steps "
          f"({train.num_steps} train / {val.num_steps} val / {test.num_steps} test)")

    history, horizon = (6, 3) if args.fast else (12, 12)
    spec = {
        "method": "DeepSTUQ",
        "backbone": "AGCRN",
        "method_kwargs": {"awa_config": {"epochs": 2 if args.fast else 6}},
        "training": {
            "history": history,
            "horizon": horizon,
            "hidden_dim": 8 if args.fast else 16,
            "embed_dim": 3 if args.fast else 4,
            "epochs": epochs,
            "mc_samples": 3 if args.fast else 10,
            "encoder_dropout": 0.05,
        },
    }

    print("Fitting DeepSTUQ (pre-train -> AWA re-train -> calibrate) ...")
    forecaster = Forecaster.from_spec(spec)
    forecaster.fit(train, val)
    print(f"  calibration temperature T = {forecaster.method.temperature:.3f}")

    print("Forecasting the test split ...")
    result, targets = forecaster.predict_on(test)
    point = point_metrics(result.mean, targets)
    interval = uncertainty_metrics(targets, result.mean, result.std)

    # Full-state checkpoint round trip: spec + weights + scaler + temperature.
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        forecaster.save(checkpoint_dir)
        restored = Forecaster.load(checkpoint_dir)
        restored_result, _ = restored.predict_on(test)
        identical = np.array_equal(result.mean, restored_result.mean)
    print(f"Checkpoint reload reproduces predictions bit-identically: {identical}")

    print()
    print(format_table(
        ["Metric", "Value"],
        [["MAE", point["MAE"]], ["RMSE", point["RMSE"]], ["MAPE (%)", point["MAPE"]],
         ["MNLL", interval["MNLL"]], ["PICP (%)", interval["PICP"]], ["MPIW", interval["MPIW"]]],
        title=f"DeepSTUQ on synthetic {args.dataset}",
    ))

    # Show one concrete forecast with its 95% interval and decomposition.
    sample, node = 0, 0
    lower, upper = result.interval()
    rows = []
    for step in range(min(horizon, 6)):
        rows.append([
            (step + 1) * 5,
            targets[sample, step, node],
            result.mean[sample, step, node],
            lower[sample, step, node],
            upper[sample, step, node],
            result.aleatoric_std[sample, step, node],
            result.epistemic_std[sample, step, node],
        ])
    print()
    print(format_table(
        ["min ahead", "truth", "forecast", "lower", "upper", "aleatoric std", "epistemic std"],
        rows,
        precision=1,
        title=f"Example forecast for sensor {node}",
    ))


if __name__ == "__main__":
    main()
