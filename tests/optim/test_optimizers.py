"""Tests for optimizers, schedulers and weight averaging."""

import math

import numpy as np
import pytest

from repro import nn, optim
from repro.tensor import Tensor
from repro.tensor import functional as F


def _quadratic_problem(seed=0):
    """A tiny convex problem: fit y = X w* with a Linear layer."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(64, 3))
    true_w = np.array([[1.5], [-2.0], [0.5]])
    y = x @ true_w
    layer = nn.Linear(3, 1, rng=rng)
    return layer, Tensor(x), Tensor(y), true_w


def _loss(layer, x, y):
    return F.mse_loss(layer(x), y)


class TestSGD:
    def test_decreases_loss(self):
        layer, x, y, _ = _quadratic_problem()
        opt = optim.SGD(layer.parameters(), lr=0.05)
        initial = _loss(layer, x, y).item()
        for _ in range(200):
            opt.zero_grad()
            loss = _loss(layer, x, y)
            loss.backward()
            opt.step()
        assert loss.item() < 0.05 * initial

    def test_momentum_accelerates(self):
        layer_a, x, y, _ = _quadratic_problem(1)
        layer_b, _, _, _ = _quadratic_problem(1)
        layer_b.load_state_dict(layer_a.state_dict())
        plain = optim.SGD(layer_a.parameters(), lr=0.01)
        momentum = optim.SGD(layer_b.parameters(), lr=0.01, momentum=0.9)
        for _ in range(50):
            for layer, opt in ((layer_a, plain), (layer_b, momentum)):
                opt.zero_grad()
                _loss(layer, x, y).backward()
                opt.step()
        assert _loss(layer_b, x, y).item() < _loss(layer_a, x, y).item()

    def test_weight_decay_shrinks_weights(self):
        layer = nn.Linear(4, 1, rng=np.random.default_rng(0))
        layer.weight.data[...] = 10.0
        opt = optim.SGD(layer.parameters(), lr=0.1, weight_decay=0.5)
        x = Tensor(np.zeros((4, 4)))
        y = Tensor(np.zeros((4, 1)))
        for _ in range(10):
            opt.zero_grad()
            _loss(layer, x, y).backward()
            opt.step()
        assert np.all(np.abs(layer.weight.numpy()) < 10.0)

    def test_invalid_momentum(self):
        layer = nn.Linear(2, 1)
        with pytest.raises(ValueError):
            optim.SGD(layer.parameters(), lr=0.1, momentum=1.5)

    def test_invalid_lr(self):
        layer = nn.Linear(2, 1)
        with pytest.raises(ValueError):
            optim.SGD(layer.parameters(), lr=0.0)

    def test_empty_parameters(self):
        with pytest.raises(ValueError):
            optim.SGD([], lr=0.1)

    def test_skips_parameters_without_grad(self):
        layer = nn.Linear(2, 1)
        opt = optim.SGD(layer.parameters(), lr=0.1)
        before = layer.weight.numpy().copy()
        opt.step()  # no backward performed
        assert np.allclose(before, layer.weight.numpy())

    def test_clip_grad_norm(self):
        layer = nn.Linear(2, 1)
        layer.weight.grad = np.full((2, 1), 100.0)
        layer.bias.grad = np.full((1,), 100.0)
        opt = optim.SGD(layer.parameters(), lr=0.1)
        norm = opt.clip_grad_norm(1.0)
        assert norm > 1.0
        total = sum(float(np.sum(p.grad ** 2)) for p in layer.parameters())
        assert math.isclose(math.sqrt(total), 1.0, rel_tol=1e-6)


class TestAdam:
    def test_converges_on_quadratic(self):
        layer, x, y, true_w = _quadratic_problem(2)
        opt = optim.Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            _loss(layer, x, y).backward()
            opt.step()
        assert np.allclose(layer.weight.numpy(), true_w, atol=0.05)

    def test_invalid_betas(self):
        layer = nn.Linear(2, 1)
        with pytest.raises(ValueError):
            optim.Adam(layer.parameters(), lr=0.1, betas=(1.0, 0.999))

    def test_bias_correction_first_step_magnitude(self):
        """First Adam step should be approximately lr in magnitude."""
        layer = nn.Linear(1, 1, bias=False)
        layer.weight.data[...] = 1.0
        opt = optim.Adam(layer.parameters(), lr=0.1)
        x = Tensor(np.ones((8, 1)))
        y = Tensor(np.zeros((8, 1)))
        opt.zero_grad()
        _loss(layer, x, y).backward()
        opt.step()
        assert math.isclose(abs(1.0 - layer.weight.item()), 0.1, rel_tol=1e-3)

    def test_handles_badly_scaled_problem(self):
        """Adam's per-parameter scaling should still converge when features differ by 1e4 in scale."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 2)) * np.array([100.0, 0.01])
        y = x @ np.array([[1.0], [1.0]])
        layer = nn.Linear(2, 1, rng=np.random.default_rng(4))
        adam = optim.Adam(layer.parameters(), lr=0.05)
        for _ in range(400):
            adam.zero_grad()
            F.mse_loss(layer(Tensor(x)), Tensor(y)).backward()
            adam.step()
        assert F.mse_loss(layer(Tensor(x)), Tensor(y)).item() < 0.01


class TestLBFGS:
    def test_minimize_scalar_lbfgs(self):
        # minimize (x - 3)^2
        def objective(x):
            return (x - 3.0) ** 2, 2.0 * (x - 3.0)

        assert math.isclose(optim.minimize_scalar_lbfgs(objective, x0=0.0), 3.0, rel_tol=1e-5)


class TestSchedulers:
    def _opt(self):
        return optim.SGD(nn.Linear(2, 1).parameters(), lr=0.1)

    def test_cyclic_cosine_shape(self):
        """Even epochs decay from lr_max to lr_min; odd epochs hold lr_min (Fig. 5)."""
        opt = self._opt()
        sched = optim.CyclicCosineLR(opt, lr_max=3e-3, lr_min=3e-5, steps_per_epoch=100)
        trace = sched.trace(400)
        epoch0, epoch1 = trace[:100], trace[100:200]
        epoch2 = trace[200:300]
        assert math.isclose(epoch0[0], 3e-3, rel_tol=1e-9)
        assert math.isclose(epoch0[-1], 3e-5, rel_tol=1e-9)
        assert all(math.isclose(lr, 3e-5, rel_tol=1e-9) for lr in epoch1)
        assert math.isclose(epoch2[0], 3e-3, rel_tol=1e-9)

    def test_cyclic_cosine_applies_to_optimizer(self):
        opt = self._opt()
        sched = optim.CyclicCosineLR(opt, lr_max=0.1, lr_min=0.001, steps_per_epoch=4)
        sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_cyclic_invalid_lrs(self):
        with pytest.raises(ValueError):
            optim.CyclicCosineLR(self._opt(), lr_max=0.001, lr_min=0.1, steps_per_epoch=5)

    def test_cyclic_cosine_decays_monotonically_through_its_midpoint(self):
        """Inside an even epoch the Eq. 16 cosine never rises and halves at mid-epoch."""
        sched = optim.CyclicCosineLR(self._opt(), lr_max=0.1, lr_min=0.01, steps_per_epoch=5)
        trace = sched.trace(20)
        for epoch in (trace[0:5], trace[10:15]):
            assert all(a >= b for a, b in zip(epoch, epoch[1:]))
            assert math.isclose(epoch[2], (0.1 + 0.01) / 2, rel_tol=1e-12)
            assert math.isclose(epoch[-1], 0.01, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr_max": 0.1, "lr_min": 0.01, "steps_per_epoch": 0},
            {"lr_max": 0.1, "lr_min": 0.0, "steps_per_epoch": 5},
        ],
        ids=["zero-steps", "zero-lr-min"],
    )
    def test_cyclic_invalid_steps_and_nonpositive_lr(self, kwargs):
        with pytest.raises(ValueError):
            optim.CyclicCosineLR(self._opt(), **kwargs)

    def test_epoch_of(self):
        sched = optim.CyclicCosineLR(self._opt(), lr_max=0.1, lr_min=0.01, steps_per_epoch=10)
        assert sched.epoch_of(1) == 0
        assert sched.epoch_of(10) == 0
        assert sched.epoch_of(11) == 1


class TestWeightAverager:
    def test_average_of_two_models(self):
        net_a = nn.Linear(2, 2, rng=np.random.default_rng(0))
        net_b = nn.Linear(2, 2, rng=np.random.default_rng(1))
        averager = optim.WeightAverager(net_a)
        averager.update(net_a)
        averager.update(net_b)
        expected = 0.5 * (net_a.weight.numpy() + net_b.weight.numpy())
        assert np.allclose(averager.state_dict()["weight"], expected)
        assert averager.num_models == 2

    def test_streaming_average_matches_batch_average(self):
        rng = np.random.default_rng(2)
        nets = [nn.Linear(3, 1, rng=np.random.default_rng(seed)) for seed in range(5)]
        averager = optim.WeightAverager(nets[0])
        for net in nets:
            averager.update(net)
        expected = np.mean([net.weight.numpy() for net in nets], axis=0)
        assert np.allclose(averager.state_dict()["weight"], expected)

    def test_apply_to(self):
        net = nn.Linear(2, 2, rng=np.random.default_rng(0))
        target = nn.Linear(2, 2, rng=np.random.default_rng(1))
        averager = optim.WeightAverager(net, include_initial=True)
        averager.apply_to(target)
        assert np.allclose(target.weight.numpy(), net.weight.numpy())

    def test_apply_before_update_raises(self):
        net = nn.Linear(2, 2)
        averager = optim.WeightAverager(net)
        with pytest.raises(RuntimeError):
            averager.apply_to(net)

    def test_include_initial(self):
        net = nn.Linear(2, 2)
        averager = optim.WeightAverager(net, include_initial=True)
        assert averager.num_models == 1
