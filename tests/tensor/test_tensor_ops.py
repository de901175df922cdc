"""Unit tests for elementwise and arithmetic operations of the Tensor engine."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F


class TestBasicArithmetic:
    def test_add_forward(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        assert np.allclose((a + b).numpy(), [5.0, 7.0, 9.0])

    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_add_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (a + 5.0).sum()
        out.backward()
        assert np.allclose(out.item(), 13.0)
        assert np.allclose(a.grad, [1.0, 1.0])

    def test_radd(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose((3.0 + a).numpy(), [4.0, 5.0])

    def test_sub_backward(self):
        a = Tensor([5.0, 5.0], requires_grad=True)
        b = Tensor([2.0, 1.0], requires_grad=True)
        (a - b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [-1.0, -1.0])

    def test_rsub(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (10.0 - a).sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [4.0, 5.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.5])

    def test_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        (8.0 / a).sum().backward()
        assert np.allclose(a.grad, [-2.0])

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_pow_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a ** 3).sum().backward()
        assert np.allclose(a.grad, [12.0, 27.0])

    def test_pow_tensor_exponent_rejected(self):
        a = Tensor([2.0], requires_grad=True)
        with pytest.raises(TypeError):
            a ** Tensor([2.0])

    def test_broadcasting_grad_shapes(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0 * np.ones(4))

    def test_broadcasting_keepdim_axis(self):
        a = Tensor(np.ones((2, 1, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 5, 3)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 1, 3)
        assert np.allclose(a.grad, 5.0)

    def test_gradient_accumulation_over_reuse(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * a + a
        out.backward()
        assert np.allclose(a.grad, [5.0])


class TestElementwiseFunctions:
    def test_exp(self):
        a = Tensor([0.0, 1.0], requires_grad=True)
        out = a.exp().sum()
        out.backward()
        assert np.allclose(a.grad, np.exp([0.0, 1.0]))

    def test_log(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        a.log().sum().backward()
        assert np.allclose(a.grad, [1.0, 0.5])

    def test_sqrt(self):
        a = Tensor([4.0, 9.0], requires_grad=True)
        a.sqrt().sum().backward()
        assert np.allclose(a.grad, [0.25, 1.0 / 6.0])

    def test_abs(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        a.abs().sum().backward()
        assert np.allclose(a.grad, [-1.0, 1.0])

    def test_tanh_range(self):
        a = Tensor(np.linspace(-3, 3, 7))
        out = a.tanh().numpy()
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_sigmoid_at_zero(self):
        a = Tensor([0.0], requires_grad=True)
        out = a.sigmoid()
        out.sum().backward()
        assert np.allclose(out.numpy(), [0.5])
        assert np.allclose(a.grad, [0.25])

    def test_relu(self):
        a = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        assert np.allclose(a.grad, [0.0, 0.0, 1.0])

    def test_clip_gradient_masked(self):
        a = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        a.clip(0.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])


class TestMaximumMinimumWhere:
    def test_maximum(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        F.maximum(a, b).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0])
        assert np.allclose(b.grad, [1.0, 0.0])

    def test_maximum_tie_splits_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        F.maximum(a, b).sum().backward()
        assert np.allclose(a.grad + b.grad, [1.0])

    def test_minimum(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        out = F.minimum(a, b)
        assert np.allclose(out.numpy(), [1.0, 2.0])

    def test_where(self):
        cond = np.array([True, False])
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([9.0, 9.0], requires_grad=True)
        out = F.where(cond, a, b)
        out.sum().backward()
        assert np.allclose(out.numpy(), [1.0, 9.0])
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])


class TestGradMode:
    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        from repro.tensor import is_grad_enabled

        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_backward_on_non_grad_tensor_raises(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_backward_nonscalar_requires_grad_arg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_detach_breaks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
