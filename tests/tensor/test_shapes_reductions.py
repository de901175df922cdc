"""Tests for reductions, shape manipulation, indexing and matmul gradients."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F


class TestReductions:
    def test_sum_all(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_sum_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=0)
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_sum_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_mean(self):
        a = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, 0.25 * np.ones((2, 2)))

    def test_mean_axis_value(self):
        a = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]))
        assert np.allclose(a.mean(axis=0).numpy(), [3.0, 5.0])

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).normal(size=(4, 5))
        a = Tensor(data)
        assert np.allclose(a.var().item(), data.var())

    def test_max_gradient_goes_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_max_axis(self):
        a = Tensor(np.array([[1.0, 2.0], [4.0, 3.0]]), requires_grad=True)
        out = a.max(axis=1)
        assert np.allclose(out.numpy(), [2.0, 4.0])
        out.sum().backward()
        assert np.allclose(a.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_min(self):
        a = Tensor([3.0, 1.0, 2.0])
        assert np.allclose(a.min().item(), 1.0)


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_reshape_accepts_tuple(self):
        a = Tensor(np.arange(6.0))
        assert a.reshape((3, 2)).shape == (3, 2)

    def test_transpose_default_reverses(self):
        a = Tensor(np.ones((2, 3, 4)))
        assert a.transpose().shape == (4, 3, 2)

    def test_transpose_axes_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)), requires_grad=True)
        out = a.transpose(1, 0, 2)
        assert out.shape == (3, 2, 4)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)

    def test_swapaxes(self):
        a = Tensor(np.ones((2, 5, 3)))
        assert a.swapaxes(1, 2).shape == (2, 3, 5)

    def test_squeeze_unsqueeze(self):
        a = Tensor(np.ones((2, 1, 3)), requires_grad=True)
        out = a.squeeze(1).unsqueeze(0)
        assert out.shape == (1, 2, 3)
        out.sum().backward()
        assert a.grad.shape == (2, 1, 3)

    def test_broadcast_to(self):
        a = Tensor(np.ones((1, 3)), requires_grad=True)
        out = a.broadcast_to((4, 3))
        out.sum().backward()
        assert np.allclose(a.grad, 4.0 * np.ones((1, 3)))

    def test_getitem_slice(self):
        a = Tensor(np.arange(10.0), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        assert np.allclose(a.grad, expected)

    def test_getitem_fancy_index_accumulates(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        idx = np.array([0, 0, 3])
        a[idx].sum().backward()
        expected = np.array([2.0, 0.0, 0.0, 1.0, 0.0])
        assert np.allclose(a.grad, expected)

    def test_T_property(self):
        a = Tensor(np.ones((2, 4)))
        assert a.T.shape == (4, 2)


class TestMatmul:
    def test_matmul_2d_forward(self):
        a = np.random.default_rng(0).normal(size=(3, 4))
        b = np.random.default_rng(1).normal(size=(4, 5))
        out = Tensor(a).matmul(Tensor(b))
        assert np.allclose(out.numpy(), a @ b)

    def test_matmul_2d_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
        a.matmul(b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.numpy().T)
        assert np.allclose(b.grad, a.numpy().T @ np.ones((3, 2)))

    def test_matmul_batched(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(6, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 4, 5)), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (6, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (6, 3, 4)
        assert b.grad.shape == (6, 4, 5)

    def test_matmul_broadcast_weight(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(6, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        out = a.matmul(w)
        out.sum().backward()
        assert w.grad.shape == (4, 5)
        expected_w_grad = np.einsum("bij,bik->jk", a.numpy(), np.ones((6, 3, 5)))
        assert np.allclose(w.grad, expected_w_grad)

    def test_matmul_vector_inner(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        out = a @ b
        out.backward()
        assert np.allclose(out.item(), 32.0)
        assert np.allclose(a.grad, [4.0, 5.0, 6.0])
        assert np.allclose(b.grad, [1.0, 2.0, 3.0])

    def test_operator_matmul(self):
        a = Tensor(np.eye(3))
        b = Tensor(np.arange(9.0).reshape(3, 3))
        assert np.allclose((a @ b).numpy(), b.numpy())


class TestCatStackSoftmax:
    def test_cat_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = F.cat([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))
        assert np.allclose(b.grad, np.ones((2, 2)))

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(2.0 * np.ones(3), requires_grad=True)
        out = F.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * Tensor([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])).sum().backward()
        assert np.allclose(a.grad, np.ones(3))
        assert np.allclose(b.grad, 2.0 * np.ones(3))

    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        out = F.softmax(x, axis=-1).numpy()
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert np.all(out >= 0.0)

    def test_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([1000.0, 1000.0, 1000.0]))
        out = F.softmax(x).numpy()
        assert np.allclose(out, np.ones(3) / 3.0)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(1).normal(size=(5,)))
        assert np.allclose(F.log_softmax(x).numpy(), np.log(F.softmax(x).numpy()))


class TestLossHelpers:
    def test_mse_loss(self):
        pred = Tensor([1.0, 2.0], requires_grad=True)
        target = Tensor([0.0, 0.0])
        loss = F.mse_loss(pred, target)
        assert np.allclose(loss.item(), 2.5)

    def test_l1_loss(self):
        pred = Tensor([1.0, -2.0])
        target = Tensor([0.0, 0.0])
        assert np.allclose(F.l1_loss(pred, target).item(), 1.5)

    def test_gaussian_nll_known_value(self):
        # mu = y, sigma^2 = 1  ->  nll = 0.5 log(2 pi)
        mean = Tensor([0.0])
        log_var = Tensor([0.0])
        target = Tensor([0.0])
        nll = F.gaussian_nll(mean, log_var, target)
        assert np.allclose(nll.item(), 0.5 * np.log(2.0 * np.pi))

    def test_gaussian_nll_penalizes_wrong_mean(self):
        target = Tensor([0.0])
        good = F.gaussian_nll(Tensor([0.0]), Tensor([0.0]), target).item()
        bad = F.gaussian_nll(Tensor([3.0]), Tensor([0.0]), target).item()
        assert bad > good

    def test_huber_quadratic_region(self):
        pred = Tensor([0.5], requires_grad=True)
        target = Tensor([0.0])
        assert np.allclose(F.huber_loss(pred, target, delta=1.0).item(), 0.125)

    def test_huber_linear_region(self):
        pred = Tensor([3.0])
        target = Tensor([0.0])
        assert np.allclose(F.huber_loss(pred, target, delta=1.0).item(), 2.5)

    def test_pinball_loss_asymmetry(self):
        target = Tensor([1.0])
        over = F.pinball_loss(Tensor([2.0]), target, quantile=0.9).item()
        under = F.pinball_loss(Tensor([0.0]), target, quantile=0.9).item()
        assert under > over

    def test_pinball_invalid_quantile(self):
        with pytest.raises(ValueError):
            F.pinball_loss(Tensor([0.0]), Tensor([0.0]), quantile=1.5)

    def test_dropout_mask_scaling(self):
        rng = np.random.default_rng(0)
        mask = F.dropout_mask((10000,), rate=0.3, rng=rng)
        assert np.allclose(mask.mean(), 1.0, atol=0.05)
        assert set(np.unique(mask)).issubset({0.0, 1.0 / 0.7})

    def test_dropout_mask_invalid_rate(self):
        with pytest.raises(ValueError):
            F.dropout_mask((3,), rate=1.0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.2, 0.3, 0.5, 0.9, 0.999])
    def test_dropout_mask_bits_match_threshold_then_divide(self, rate):
        """One buffer, thresholded and scaled in place, is bit for bit the
        mask of one draw per slab, thresholded, cast and divided by keep."""
        keep = 1.0 - rate
        shape, num_streams = (12, 4, 5), 3
        single = F.dropout_mask(shape, rate, np.random.default_rng(1))
        expected = (np.random.default_rng(1).random(shape) < keep).astype(np.float64) / keep
        np.testing.assert_array_equal(single, expected)

        folded = F.dropout_mask(
            shape, rate, [np.random.default_rng(seed) for seed in range(num_streams)]
        )
        slab_shape = (shape[0] // num_streams,) + shape[1:]
        expected = np.concatenate(
            [
                (np.random.default_rng(seed).random(slab_shape) < keep).astype(np.float64) / keep
                for seed in range(num_streams)
            ]
        )
        np.testing.assert_array_equal(folded, expected)

    def test_dropout_mask_streams_must_split_the_rows(self):
        streams = [np.random.default_rng(seed) for seed in range(3)]
        with pytest.raises(ValueError):
            F.dropout_mask((7, 2), rate=0.5, rng=streams)
