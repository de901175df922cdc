"""Experiment harness regenerating every table and figure of the paper.

Each runner returns plain Python data structures (lists of row dicts or
series dicts) and has a matching formatter producing the text table/series
printed by the corresponding benchmark in ``benchmarks/``.  The mapping from
paper artifact to runner is recorded in DESIGN.md (per-experiment index) and
EXPERIMENTS.md (measured results).
"""

from repro.evaluation.config import (
    BENCH_SCALE,
    PAPER_SCALE,
    UNIT_SCALE,
    ExperimentScale,
    make_awa_config,
    make_training_config,
    scale_from_env,
)
from repro.evaluation.datasets import dataset_statistics, load_benchmark_splits
from repro.evaluation.point_prediction import (
    POINT_MODEL_NAMES,
    run_point_prediction,
    train_and_evaluate_point_model,
)
from repro.evaluation.uncertainty_quantification import run_uncertainty_quantification
from repro.evaluation.ablations import (
    run_awa_ablation,
    run_calibration_ablation,
    run_lambda_ablation,
    run_mc_sample_ablation,
)
from repro.evaluation.horizon_analysis import run_horizon_point_analysis, run_horizon_uncertainty_analysis
from repro.evaluation.trajectories import run_interval_trajectory, run_uncertainty_decomposition
from repro.evaluation.formatting import (
    format_figure_series,
    format_method_table,
    format_rows,
)

__all__ = [
    "ExperimentScale",
    "UNIT_SCALE",
    "BENCH_SCALE",
    "PAPER_SCALE",
    "make_training_config",
    "make_awa_config",
    "scale_from_env",
    "dataset_statistics",
    "load_benchmark_splits",
    "POINT_MODEL_NAMES",
    "run_point_prediction",
    "train_and_evaluate_point_model",
    "run_uncertainty_quantification",
    "run_awa_ablation",
    "run_calibration_ablation",
    "run_mc_sample_ablation",
    "run_lambda_ablation",
    "run_horizon_point_analysis",
    "run_horizon_uncertainty_analysis",
    "run_interval_trajectory",
    "run_uncertainty_decomposition",
    "format_rows",
    "format_method_table",
    "format_figure_series",
]
