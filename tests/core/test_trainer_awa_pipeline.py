"""Tests for the Trainer, AWA re-training and the three-stage DeepSTUQ pipeline."""

from unittest import mock

import numpy as np
import pytest

from repro.core import (
    AWAConfig,
    AWATrainer,
    Trainer,
    TrainingConfig,
    combined_loss,
    point_l1_loss,
)
from repro.data import TrafficData, generate_traffic, train_val_test_split
from repro.graph import grid_network
from repro.models import AGCRN
from repro.uq import DeepSTUQ


NUM_NODES = 9


def _traffic(num_steps=700, seed=0):
    network = grid_network(3, 3)
    values = generate_traffic(network, num_steps, seed=seed)
    return TrafficData(name="trainer-test", values=values, network=network)


def _config(**overrides):
    params = dict(
        history=6, horizon=3, hidden_dim=8, embed_dim=3,
        epochs=2, batch_size=64, encoder_dropout=0.1, decoder_dropout=0.2, seed=0,
    )
    params.update(overrides)
    return TrainingConfig(**params)


def _point_model(config, seed=0):
    return AGCRN(
        num_nodes=NUM_NODES, history=config.history, horizon=config.horizon,
        hidden_dim=config.hidden_dim, embed_dim=config.embed_dim,
        encoder_dropout=config.encoder_dropout, decoder_dropout=config.decoder_dropout,
        heads=("mean",), rng=np.random.default_rng(seed),
    )


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="rmsprop")

    def test_defaults_match_paper(self):
        config = TrainingConfig()
        assert config.history == 12 and config.horizon == 12
        assert config.learning_rate == pytest.approx(3e-3)
        assert config.weight_decay == pytest.approx(1e-6)
        assert config.lambda_weight == pytest.approx(0.1)
        assert config.decoder_dropout == pytest.approx(0.2)
        assert config.mc_samples == 10


class TestTrainer:
    def test_training_reduces_loss(self):
        traffic = _traffic()
        config = _config(epochs=3)
        model = _point_model(config)
        trainer = Trainer(model, config, lambda out, tgt: point_l1_loss(out, tgt))
        history = trainer.fit(traffic)
        assert len(history) == 3
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_validation_loss_recorded(self):
        traffic = _traffic()
        train, val, _ = train_val_test_split(traffic)
        config = _config(epochs=1)
        model = _point_model(config)
        trainer = Trainer(model, config, lambda out, tgt: point_l1_loss(out, tgt))
        history = trainer.fit(train, val_data=val)
        assert "val_loss" in history[0]
        assert np.isfinite(history[0]["val_loss"])

    def test_make_loader_requires_scaler(self):
        config = _config()
        trainer = Trainer(_point_model(config), config, lambda o, t: point_l1_loss(o, t))
        with pytest.raises(RuntimeError):
            trainer.make_loader(_traffic())

    def test_sgd_option(self):
        config = _config(optimizer="sgd", epochs=1, learning_rate=1e-3)
        model = _point_model(config)
        trainer = Trainer(model, config, lambda o, t: point_l1_loss(o, t))
        history = trainer.fit(_traffic(num_steps=300))
        assert np.isfinite(history[0]["train_loss"])

    def test_probabilistic_training_produces_finite_logvar(self):
        traffic = _traffic()
        config = _config(epochs=2)
        model = AGCRN(
            num_nodes=NUM_NODES, history=config.history, horizon=config.horizon,
            hidden_dim=8, embed_dim=3, heads=("mean", "log_var"), rng=np.random.default_rng(0),
        )
        trainer = Trainer(
            model, config,
            lambda out, tgt: combined_loss(out["mean"], out["log_var"], tgt, 0.1),
        )
        history = trainer.fit(traffic)
        assert all(np.isfinite(h["train_loss"]) for h in history)


class TestAWA:
    def test_awa_config_validation(self):
        with pytest.raises(ValueError):
            AWAConfig(epochs=1)
        with pytest.raises(ValueError):
            AWAConfig(optimizer="rmsprop")
        assert AWAConfig(epochs=20).num_averaged_models == 10

    def test_awa_retraining_runs_and_averages(self):
        traffic = _traffic()
        config = _config(epochs=1)
        model = _point_model(config)
        trainer = Trainer(model, config, lambda o, t: point_l1_loss(o, t))
        trainer.fit(traffic)
        awa = AWATrainer(trainer, AWAConfig(epochs=4, lr_max=3e-3, lr_min=3e-5))
        before = {k: v.copy() for k, v in model.state_dict().items()}
        awa.retrain(traffic)
        after = model.state_dict()
        assert len(awa.history) == 4
        changed = any(not np.allclose(before[k], after[k]) for k in before)
        assert changed

    def test_awa_learning_rate_follows_cyclic_schedule(self):
        traffic = _traffic(num_steps=400)
        config = _config(epochs=1)
        model = _point_model(config)
        trainer = Trainer(model, config, lambda o, t: point_l1_loss(o, t))
        trainer.fit(traffic)
        awa_config = AWAConfig(epochs=2, lr_max=3e-3, lr_min=3e-5)
        awa = AWATrainer(trainer, awa_config)
        awa.retrain(traffic)
        rates = np.array(awa.learning_rates)
        steps_per_epoch = len(rates) // 2
        # Even epoch: cosine decay from lr_max to lr_min; odd epoch: constant lr_min.
        assert rates[0] == pytest.approx(3e-3)
        assert rates[steps_per_epoch - 1] == pytest.approx(3e-5, rel=1e-6)
        assert np.allclose(rates[steps_per_epoch:], 3e-5)

    def test_awa_does_not_destroy_accuracy(self):
        """The averaged model should stay in the same loss ballpark as the pre-trained one."""
        traffic = _traffic(num_steps=600)
        train, val, _ = train_val_test_split(traffic)
        config = _config(epochs=3)
        model = _point_model(config)
        trainer = Trainer(model, config, lambda o, t: point_l1_loss(o, t))
        trainer.fit(train)
        loader = trainer.make_loader(val, shuffle=False)
        before = trainer.evaluate(loader)
        AWATrainer(trainer, AWAConfig(epochs=4)).retrain(train)
        after = trainer.evaluate(loader)
        assert after < before * 1.5


def _fit_counting_awa(method, train, val):
    """Fit ``method``; returns how many times AWA re-training ran."""
    with mock.patch.object(
        AWATrainer, "retrain", autospec=True, side_effect=AWATrainer.retrain
    ) as retrain:
        method.fit(train, val)
    return retrain.call_count


class TestDeepSTUQPipeline:
    @pytest.fixture(scope="class")
    def fitted_pipeline(self):
        traffic = _traffic(num_steps=700, seed=3)
        train, val, test = train_val_test_split(traffic)
        method = DeepSTUQ(
            NUM_NODES, config=_config(epochs=2, mc_samples=4), awa_config=AWAConfig(epochs=2)
        )
        awa_runs = _fit_counting_awa(method, train, val)
        return method, test, awa_runs

    def test_stages_recorded(self, fitted_pipeline):
        method, _, awa_runs = fitted_pipeline
        assert awa_runs == 1
        assert method.calibrator.fitted
        assert method.fitted

    def test_temperature_is_positive(self, fitted_pipeline):
        method, _, _ = fitted_pipeline
        assert method.calibrator.temperature > 0

    def test_prediction_shapes_and_decomposition(self, fitted_pipeline):
        method, test, _ = fitted_pipeline
        result, targets = method.predict_on(test.slice_steps(0, 120))
        assert result.mean.shape == targets.shape
        assert np.all(result.aleatoric_var >= 0)
        assert np.all(result.epistemic_var >= 0)
        assert result.aleatoric_var.mean() > result.epistemic_var.mean()

    def test_single_pass_prediction(self, fitted_pipeline):
        method, test, _ = fitted_pipeline
        inputs, targets = method._windows(test.slice_steps(0, 80))
        result = method.predict_single_pass(inputs)
        assert result.mean.shape == targets.shape
        assert np.allclose(result.epistemic_var, 0.0)

    def test_mc_prediction_reproducible(self, fitted_pipeline):
        method, test, _ = fitted_pipeline
        inputs, _ = method._windows(test.slice_steps(0, 60))
        a = method.predict(inputs, num_samples=3, rng=np.random.default_rng(0))
        b = method.predict(inputs, num_samples=3, rng=np.random.default_rng(0))
        assert np.allclose(a.mean, b.mean)

    def test_predict_before_fit_raises(self):
        method = DeepSTUQ(NUM_NODES, config=_config())
        with pytest.raises(RuntimeError):
            method.predict(np.zeros((1, 6, NUM_NODES)))

    def test_ablation_flags(self):
        traffic = _traffic(num_steps=500, seed=4)
        train, val, _ = train_val_test_split(traffic)
        method = DeepSTUQ(
            NUM_NODES,
            config=_config(epochs=1, mc_samples=2),
            awa_config=AWAConfig(epochs=2),
            use_awa=False,
            use_calibration=False,
        )
        assert _fit_counting_awa(method, train, val) == 0
        assert not method.calibrator.fitted
        assert method.calibrator.temperature == 1.0
