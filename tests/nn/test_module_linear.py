"""Tests for the Module/Parameter machinery, Linear, containers and init."""

import numpy as np
import pytest

from repro import nn
from repro.nn import init
from repro.tensor import Tensor


class TinyNet(nn.Module):
    def __init__(self, rng=None):
        super().__init__()
        self.fc1 = nn.Linear(4, 8, rng=rng)
        self.fc2 = nn.Linear(8, 2, rng=rng)
        self.drop = nn.Dropout(0.5, rng=rng)

    def forward(self, x):
        return self.fc2(self.drop(self.fc1(x).relu()))


class TestModule:
    def test_parameter_registration(self):
        net = TinyNet()
        names = dict(net.named_parameters())
        assert "fc1.weight" in names and "fc2.bias" in names
        assert len(net.parameters()) == 4

    def test_num_parameters(self):
        net = TinyNet()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_recursive(self):
        net = TinyNet()
        net.eval()
        assert not net.training and not net.fc1.training and not net.drop.training
        net.train()
        assert net.drop.training

    def test_zero_grad(self):
        net = TinyNet()
        x = Tensor(np.ones((3, 4)))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self):
        rng = np.random.default_rng(0)
        net_a = TinyNet(rng=rng)
        net_b = TinyNet(rng=np.random.default_rng(99))
        net_b.load_state_dict(net_a.state_dict())
        x = Tensor(np.ones((2, 4)))
        net_a.eval(), net_b.eval()
        assert np.allclose(net_a(x).numpy(), net_b(x).numpy())

    def test_load_state_dict_strict_mismatch(self):
        net = TinyNet()
        with pytest.raises(KeyError):
            net.load_state_dict({"nonexistent": np.zeros(3)})

    def test_load_state_dict_shape_mismatch(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_modules_iteration(self):
        net = TinyNet()
        classes = [m.__class__.__name__ for m in net.modules()]
        assert classes.count("Linear") == 2
        assert "Dropout" in classes

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(1)

    def test_repr_lists_children(self):
        assert "fc1" in repr(TinyNet())


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(5, 3)
        assert layer(Tensor(np.ones((7, 5)))).shape == (7, 3)

    def test_batched_3d_input(self):
        layer = nn.Linear(5, 3)
        assert layer(Tensor(np.ones((2, 7, 5)))).shape == (2, 7, 3)

    def test_wrong_input_dim_raises(self):
        layer = nn.Linear(5, 3)
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((7, 4))))

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False)
        assert len(layer.parameters()) == 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)

    def test_gradients_flow_to_weights(self):
        layer = nn.Linear(4, 2, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(6, 4)))
        layer(x).sum().backward()
        assert layer.weight.grad is not None and layer.weight.grad.shape == (4, 2)
        assert np.allclose(layer.bias.grad, 6.0 * np.ones(2))


class TestDropout:
    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)

    def test_training_mode_is_stochastic(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100,)))
        out = layer(x).numpy()
        assert np.any(out == 0.0)
        assert np.any(out > 1.0)

    def test_eval_mode_is_identity(self):
        layer = nn.Dropout(0.5)
        layer.eval()
        x = Tensor(np.ones((10,)))
        assert np.allclose(layer(x).numpy(), 1.0)

    def test_mc_mode_stays_stochastic_in_eval(self):
        layer = nn.Dropout(0.5)
        layer.eval()
        with nn.inference(np.random.default_rng(0)):
            out = layer(Tensor(np.ones(200))).numpy()
        assert np.any(out == 0.0)

    def test_inference_streams_reach_nested_dropout(self):
        net = TinyNet(rng=np.random.default_rng(0))
        net.eval()
        x = Tensor(np.ones((16, 4)))
        with nn.inference(np.random.default_rng(1)):
            first, second = net(x).numpy(), net(x).numpy()
        assert not np.allclose(first, second)
        np.testing.assert_array_equal(net(x).numpy(), net(x).numpy())

    def test_zero_rate_is_identity_even_in_training(self):
        layer = nn.Dropout(0.0)
        x = Tensor(np.ones(50))
        assert np.allclose(layer(x).numpy(), 1.0)


class TestContainers:
    def test_sequential_forward(self):
        seq = nn.Sequential(nn.Linear(4, 8), nn.Linear(8, 2))
        assert seq(Tensor(np.ones((3, 4)))).shape == (3, 2)

    def test_sequential_registers_parameters(self):
        seq = nn.Sequential(nn.Linear(4, 8), nn.Linear(8, 2))
        assert len(seq.parameters()) == 4

    def test_sequential_indexing_len_iter(self):
        seq = nn.Sequential(nn.Linear(4, 8), nn.Linear(8, 2))
        assert len(seq) == 2
        assert isinstance(seq[0], nn.Linear)
        assert len(list(iter(seq))) == 2

    def test_module_list(self):
        layers = nn.ModuleList([nn.Linear(3, 3) for _ in range(4)])
        assert len(layers) == 4
        assert len(layers.parameters()) == 8
        with pytest.raises(NotImplementedError):
            layers(Tensor(np.ones((1, 3))))

    def test_module_list_append(self):
        layers = nn.ModuleList()
        layers.append(nn.Linear(2, 2))
        assert len(layers) == 1


class TestInit:
    def test_xavier_uniform_bound(self):
        w = init.xavier_uniform((100, 100), rng=np.random.default_rng(0))
        bound = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= bound)

    def test_xavier_normal_std(self):
        w = init.xavier_normal((200, 200), rng=np.random.default_rng(0))
        assert abs(w.std() - np.sqrt(2.0 / 400)) < 5e-4

    def test_kaiming_normal_std(self):
        w = init.kaiming_normal((300, 50), rng=np.random.default_rng(0))
        assert abs(w.std() - np.sqrt(2.0 / 300)) < 2e-3

    def test_zeros_and_ones(self):
        assert np.all(init.ones((3, 3)) == 1.0)
        assert np.all(init.zeros((2,)) == 0.0)

    def test_fan_calculation_high_rank(self):
        w = init.xavier_uniform((3, 4, 5), rng=np.random.default_rng(0))
        assert w.shape == (3, 4, 5)
