"""Tests for the forecasting models (AGCRN and the Table III baselines)."""

import numpy as np
import pytest

from repro import models, nn
from repro.graph import grid_network
from repro.models import (
    AGCRN,
    ASTGCN,
    DCRNN,
    STFGNN,
    STGCN,
    STSGCN,
    GraphWaveNet,
    HistoricalAverage,
    LastValue,
)
from repro.models.stfgnn import temporal_similarity_graph
from repro.models.stsgcn import build_localized_st_adjacency
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro import optim

NUM_NODES = 9
HISTORY = 6
HORIZON = 4
BATCH = 5


@pytest.fixture(scope="module")
def network():
    return grid_network(3, 3)


@pytest.fixture(scope="module")
def adjacency(network):
    return network.adjacency_matrix()


@pytest.fixture
def batch(rng):
    x = rng.uniform(50.0, 250.0, size=(BATCH, HISTORY, NUM_NODES))
    y = rng.uniform(50.0, 250.0, size=(BATCH, HORIZON, NUM_NODES))
    return x, y


def _model_zoo(adjacency):
    rng = np.random.default_rng(0)
    kwargs = dict(history=HISTORY, horizon=HORIZON, rng=rng)
    return {
        "DCRNN": DCRNN(NUM_NODES, adjacency, hidden_dim=8, **kwargs),
        "STGCN": STGCN(NUM_NODES, adjacency, hidden_channels=4, **kwargs),
        "GWN": GraphWaveNet(NUM_NODES, adjacency, channels=4, num_layers=2, embed_dim=4, **kwargs),
        "ASTGCN": ASTGCN(NUM_NODES, adjacency, hidden_channels=4, **kwargs),
        "STSGCN": STSGCN(NUM_NODES, adjacency, hidden_channels=4, **kwargs),
        "STFGNN": STFGNN(NUM_NODES, adjacency, hidden_channels=4, **kwargs),
        "AGCRN": AGCRN(NUM_NODES, hidden_dim=8, embed_dim=4, heads=("mean",), **kwargs),
    }


class TestBaselineForwardShapes:
    @pytest.mark.parametrize(
        "name", ["DCRNN", "STGCN", "GWN", "ASTGCN", "STSGCN", "STFGNN", "AGCRN"]
    )
    def test_forward_shape(self, name, adjacency, batch):
        model = _model_zoo(adjacency)[name]
        x, _ = batch
        out = model(Tensor(x))
        assert out.shape == (BATCH, HORIZON, NUM_NODES)

    @pytest.mark.parametrize("name", ["DCRNN", "STGCN", "AGCRN"])
    def test_one_training_step_reduces_loss(self, name, adjacency, batch):
        model = _model_zoo(adjacency)[name]
        x, y = batch
        x_t, y_t = Tensor(x / 100.0), Tensor(y / 100.0)
        opt = optim.Adam(model.parameters(), lr=0.01)
        initial = F.mse_loss(model(x_t), y_t).item()
        for _ in range(8):
            opt.zero_grad()
            loss = F.mse_loss(model(x_t), y_t)
            loss.backward()
            opt.step()
        assert loss.item() < initial

    def test_predict_returns_numpy(self, adjacency, batch):
        model = _model_zoo(adjacency)["DCRNN"]
        x, _ = batch
        prediction = model.predict(x)
        assert isinstance(prediction, np.ndarray)
        assert prediction.shape == (BATCH, HORIZON, NUM_NODES)

    def test_input_validation(self, adjacency):
        model = _model_zoo(adjacency)["STGCN"]
        with pytest.raises(ValueError):
            model(Tensor(np.ones((2, HISTORY + 1, NUM_NODES))))
        with pytest.raises(ValueError):
            model(Tensor(np.ones((HISTORY, NUM_NODES))))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            AGCRN(0, history=HISTORY, horizon=HORIZON)
        with pytest.raises(ValueError):
            AGCRN(NUM_NODES, history=HISTORY, horizon=HORIZON, num_layers=0)


class TestNaiveBaselines:
    def test_last_value(self, batch):
        x, _ = batch
        model = LastValue(NUM_NODES, HISTORY, HORIZON)
        out = model.predict(x)
        assert np.allclose(out, np.repeat(x[:, -1:, :], HORIZON, axis=1))

    def test_historical_average(self, batch):
        x, _ = batch
        model = HistoricalAverage(NUM_NODES, HISTORY, HORIZON)
        out = model.predict(x)
        assert np.allclose(out, np.repeat(x.mean(axis=1, keepdims=True), HORIZON, axis=1))

    def test_no_parameters(self):
        assert LastValue(NUM_NODES, HISTORY, HORIZON).num_parameters() == 0


class TestAGCRN:
    def _model(self, heads=("mean", "log_var"), **overrides):
        params = dict(
            num_nodes=NUM_NODES,
            history=HISTORY,
            horizon=HORIZON,
            hidden_dim=8,
            embed_dim=4,
            heads=heads,
            rng=np.random.default_rng(0),
        )
        params.update(overrides)
        return AGCRN(**params)

    def test_probabilistic_heads(self, batch):
        x, _ = batch
        model = self._model()
        out = model(Tensor(x))
        assert set(out.keys()) == {"mean", "log_var"}
        assert out["mean"].shape == (BATCH, HORIZON, NUM_NODES)
        assert out["log_var"].shape == (BATCH, HORIZON, NUM_NODES)

    def test_single_head_returns_tensor(self, batch):
        x, _ = batch
        out = self._model(heads=("mean",))(Tensor(x))
        assert isinstance(out, Tensor)

    def test_quantile_heads(self, batch):
        x, _ = batch
        out = self._model(heads=("lower", "mean", "upper"))(Tensor(x))
        assert set(out.keys()) == {"lower", "mean", "upper"}

    def test_duplicate_heads_rejected(self):
        with pytest.raises(ValueError):
            self._model(heads=("mean", "mean"))

    def test_empty_heads_rejected(self):
        with pytest.raises(ValueError):
            self._model(heads=())

    def test_multi_layer(self, batch):
        x, _ = batch
        out = self._model(heads=("mean",), num_layers=2)(Tensor(x))
        assert out.shape == (BATCH, HORIZON, NUM_NODES)

    @pytest.mark.parametrize("rates", [(0.3, 0.0), (0.0, 0.3)])
    def test_mc_dropout_reaches_encoder_and_decoder_dropout(self, batch, rates):
        x, _ = batch
        model = self._model(encoder_dropout=rates[0], decoder_dropout=rates[1])
        model.eval()
        with nn.inference(np.random.default_rng(1)):
            a = model(Tensor(x))["mean"].numpy()
        with nn.inference(np.random.default_rng(2)):
            b = model(Tensor(x))["mean"].numpy()
        assert not np.allclose(a, b)

    def test_eval_forward_is_deterministic_without_mc(self, batch):
        x, _ = batch
        model = self._model()
        model.eval()
        a = model(Tensor(x))["mean"].numpy()
        b = model(Tensor(x))["mean"].numpy()
        assert np.allclose(a, b)

    def test_mc_dropout_forward_is_stochastic(self, batch):
        x, _ = batch
        model = self._model(encoder_dropout=0.3, decoder_dropout=0.3)
        model.eval()
        with nn.inference(np.random.default_rng(1)):
            a = model(Tensor(x))["mean"].numpy()
            b = model(Tensor(x))["mean"].numpy()
        assert not np.allclose(a, b)

    def test_mc_dropout_reproducible_from_the_same_stream(self, batch):
        x, _ = batch
        model = self._model(encoder_dropout=0.3, decoder_dropout=0.3)
        model.eval()
        with nn.inference(np.random.default_rng(42)):
            a = model(Tensor(x))["mean"].numpy()
        with nn.inference(np.random.default_rng(42)):
            b = model(Tensor(x))["mean"].numpy()
        np.testing.assert_array_equal(a, b)

    def test_learned_adjacency_is_stochastic_matrix(self):
        adjacency = self._model().learned_adjacency()
        assert adjacency.shape == (NUM_NODES, NUM_NODES)
        assert np.allclose(adjacency.sum(axis=1), 1.0)

    def test_gradients_flow_to_all_parameters(self, batch):
        x, y = batch
        model = self._model(heads=("mean",))
        out = model(Tensor(x / 100.0))
        F.mse_loss(out, Tensor(y / 100.0)).backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert not missing, f"parameters without gradient: {missing}"

    def test_predict_uses_mean_head(self, batch):
        x, _ = batch
        model = self._model()
        prediction = model.predict(x)
        assert prediction.shape == (BATCH, HORIZON, NUM_NODES)


class TestAuxiliaryGraphBuilders:
    def test_localized_st_adjacency_structure(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        localized = build_localized_st_adjacency(adj, num_slices=3)
        assert localized.shape == (6, 6)
        # Diagonal blocks carry the spatial graph.
        assert localized[0, 1] == 1.0
        # Off-diagonal blocks connect a node to itself in the next slice.
        assert localized[0, 2] == 1.0
        assert localized[2, 4] == 1.0
        assert localized[0, 4] == 0.0  # not two slices apart
        assert np.allclose(localized, localized.T)

    def test_localized_st_adjacency_invalid_slices(self):
        with pytest.raises(ValueError):
            build_localized_st_adjacency(np.eye(2), num_slices=1)

    def test_temporal_similarity_graph_topk(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(500, 1))
        values = np.concatenate(
            [base, base * 2.0 + 0.01 * rng.normal(size=(500, 1)), rng.normal(size=(500, 2))], axis=1
        )
        graph = temporal_similarity_graph(values, top_k=1)
        assert graph.shape == (4, 4)
        assert graph[0, 1] == 1.0  # perfectly correlated pair is connected
        assert np.allclose(graph, graph.T)
        assert np.allclose(np.diag(graph), 0.0)

    def test_temporal_similarity_graph_validation(self):
        with pytest.raises(ValueError):
            temporal_similarity_graph(np.ones(5))

    def test_stfgnn_with_temporal_graph(self, adjacency, batch):
        x, _ = batch
        rng = np.random.default_rng(1)
        history_values = rng.normal(size=(200, NUM_NODES))
        temporal_graph = temporal_similarity_graph(history_values, top_k=2)
        model = STFGNN(
            NUM_NODES,
            adjacency,
            history=HISTORY,
            horizon=HORIZON,
            hidden_channels=4,
            temporal_graph=temporal_graph,
            rng=rng,
        )
        assert model(Tensor(x)).shape == (BATCH, HORIZON, NUM_NODES)

    def test_stfgnn_temporal_graph_shape_mismatch(self, adjacency):
        with pytest.raises(ValueError):
            STFGNN(NUM_NODES, adjacency, temporal_graph=np.eye(3))

    def test_stsgcn_invalid_window(self, adjacency):
        with pytest.raises(ValueError):
            STSGCN(NUM_NODES, adjacency, history=HISTORY, horizon=HORIZON, window=1)
