"""Tests for the experiment harness (configs, runners, formatters)."""

import numpy as np
import pytest

from repro.evaluation import (
    BENCH_SCALE,
    PAPER_SCALE,
    UNIT_SCALE,
    dataset_statistics,
    format_figure_series,
    format_method_table,
    format_rows,
    make_awa_config,
    make_training_config,
    run_point_prediction,
    scale_from_env,
)
from repro.evaluation.config import SCALES, ExperimentScale
from repro.evaluation.datasets import evaluation_windows, load_benchmark_splits
from repro.evaluation.point_prediction import POINT_MODEL_NAMES, build_point_model
from repro.evaluation.uncertainty_quantification import (
    best_method_per_dataset,
    evaluate_uq_method,
    run_uncertainty_quantification,
)
from repro.core.inference import PredictionResult
from repro.graph import grid_network
from repro.metrics import Z_95


TINY = ExperimentScale(
    name="test",
    dataset_size="tiny",
    datasets=("PEMS08",),
    history=6,
    horizon=3,
    hidden_dim=8,
    embed_dim=3,
    epochs=2,
    awa_epochs=2,
    batch_size=64,
    mc_samples=2,
    max_eval_windows=64,
)


class TestConfig:
    def test_scales_registered(self):
        assert {"unit", "bench", "paper"} == set(SCALES)
        assert PAPER_SCALE.epochs == 100
        assert PAPER_SCALE.dataset_size == "full"
        assert BENCH_SCALE.datasets == ("PEMS03", "PEMS04", "PEMS07", "PEMS08")

    def test_make_training_config_dropout_rule(self):
        assert make_training_config(UNIT_SCALE, "PEMS08").encoder_dropout == pytest.approx(0.05)
        assert make_training_config(UNIT_SCALE, "PEMS03").encoder_dropout == pytest.approx(0.1)

    def test_make_awa_config(self):
        awa = make_awa_config(BENCH_SCALE)
        assert awa.epochs == BENCH_SCALE.awa_epochs
        assert awa.lr_max == pytest.approx(3e-3)

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "unit")
        assert scale_from_env().name == "unit"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(KeyError):
            scale_from_env()
        monkeypatch.delenv("REPRO_SCALE")
        assert scale_from_env(default="bench").name == "bench"


class TestDatasetsHelpers:
    def test_dataset_statistics_match_paper(self):
        rows = dataset_statistics()
        by_name = {row["Dataset"]: row for row in rows}
        assert by_name["PEMS07"]["# of Nodes"] == 883
        assert by_name["PEMS08"]["# of Steps"] == 17_856

    def test_load_benchmark_splits(self):
        train, val, test = load_benchmark_splits("PEMS08", TINY)
        assert train.num_nodes == val.num_nodes == test.num_nodes
        assert train.num_steps > val.num_steps

    def test_evaluation_windows_capped(self):
        _, _, test = load_benchmark_splits("PEMS08", TINY)
        inputs, targets = evaluation_windows(test, TINY)
        assert inputs.shape[0] <= TINY.max_eval_windows
        assert inputs.shape[1:] == (TINY.history, test.num_nodes)
        assert targets.shape[1:] == (TINY.horizon, test.num_nodes)


class TestPointPredictionRunner:
    def test_build_point_model_all_names(self):
        network = grid_network(3, 3)
        config = make_training_config(TINY, "PEMS08")
        for name in POINT_MODEL_NAMES:
            model = build_point_model(name, 9, network.adjacency_matrix(), config)
            assert model.horizon == TINY.horizon

    def test_build_point_model_unknown(self):
        with pytest.raises(KeyError):
            build_point_model("NotAModel", 9, np.eye(9), make_training_config(TINY))

    def test_run_point_prediction_single_model(self):
        rows = run_point_prediction(TINY, datasets=("PEMS08",), model_names=("AGCRN",))
        assert len(rows) == 1
        row = rows[0]
        assert row["Model"] == "AGCRN" and row["Dataset"] == "PEMS08"
        assert np.isfinite(row["MAE"]) and np.isfinite(row["RMSE"])


class TestUncertaintyRunner:
    def test_run_uq_subset(self):
        rows = run_uncertainty_quantification(TINY, datasets=("PEMS08",), method_names=("Point", "MVE"))
        assert len(rows) == 2
        mve = next(row for row in rows if row["Method"] == "MVE")
        assert np.isfinite(mve["MNLL"]) and np.isfinite(mve["PICP"])
        point = next(row for row in rows if row["Method"] == "Point")
        assert np.isnan(point["PICP"])

    def test_native_bounds_are_scored(self):
        """Asymmetric bounds are scored as given, not re-centred on the mean."""

        class SkewedBounds:
            # [mean + 1, mean + 3] holds every target; the Gaussian interval of
            # the same width, mean +- 1, holds none.
            uncertainty_type = "aleatoric"
            gaussian_likelihood = False

            def predict(self, inputs):
                mean = np.zeros((4, 3, 2))
                return PredictionResult(
                    mean=mean,
                    aleatoric_var=np.full_like(mean, (1.0 / Z_95) ** 2),
                    epistemic_var=np.zeros_like(mean),
                    lower=mean + 1.0,
                    upper=mean + 3.0,
                )

        metrics = evaluate_uq_method(SkewedBounds(), np.zeros((4, 6, 2)), np.full((4, 3, 2), 2.0))
        assert metrics["PICP"] == 100.0
        assert metrics["MPIW"] == pytest.approx(2.0)

    def test_best_method_per_dataset(self):
        rows = [
            {"Dataset": "D", "Method": "A", "MAE": 2.0},
            {"Dataset": "D", "Method": "B", "MAE": 1.0},
            {"Dataset": "D", "Method": "C", "MAE": float("nan")},
        ]
        assert best_method_per_dataset(rows, metric="MAE") == {"D": "B"}
        assert best_method_per_dataset(rows, metric="MAE", minimize=False) == {"D": "A"}


class TestFormatting:
    def test_format_rows(self):
        text = format_rows([{"a": 1, "b": 2.345}], title="T", precision=1)
        assert text.startswith("T")
        assert "2.3" in text

    def test_format_rows_empty(self):
        assert format_rows([], title="T") == "T"

    def test_format_method_table_pivots(self):
        rows = [
            {"Dataset": "D1", "Method": "A", "MAE": 1.0, "PICP": 90.0},
            {"Dataset": "D1", "Method": "B", "MAE": 2.0, "PICP": 95.0},
            {"Dataset": "D2", "Method": "A", "MAE": 3.0, "PICP": 96.0},
            {"Dataset": "D2", "Method": "B", "MAE": 4.0, "PICP": 97.0},
        ]
        text = format_method_table(rows, metrics=("MAE", "PICP"), title="Table")
        assert "D1" in text and "D2" in text
        assert text.count("MAE") == 2  # one line per dataset block

    def test_format_figure_series(self):
        records = [{"Dataset": "D", "x": [1, 2], "y": [0.1, 0.2]}]
        text = format_figure_series(records, x_key="x", series_keys=("y",))
        assert "0.10" in text and "D" in text
