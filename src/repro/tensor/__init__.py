"""Reverse-mode automatic differentiation substrate built on NumPy.

This package is the deep-learning substrate of the reproduction: the paper's
implementation uses PyTorch, which is unavailable in this environment, so the
same computational graph machinery (tensors, broadcasting-aware gradients,
matmul, reductions, activations) is implemented here from scratch.

The public entry point is :class:`~repro.tensor.tensor.Tensor` plus the
functional helpers re-exported below.  Typical usage::

    from repro.tensor import Tensor

    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    y = (x * 2.0 + 1.0).sum()
    y.backward()
    x.grad  # -> array of 2.0s
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor import functional
from repro.tensor.functional import (
    add,
    cat,
    clip,
    exp,
    log,
    matmul,
    maximum,
    mean,
    minimum,
    relu,
    sigmoid,
    softmax,
    sqrt,
    stack,
    sum as sum_,
    tanh,
    where,
)
from repro.tensor.gradcheck import gradcheck, numerical_gradient

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "add",
    "cat",
    "clip",
    "exp",
    "log",
    "matmul",
    "maximum",
    "mean",
    "minimum",
    "relu",
    "sigmoid",
    "softmax",
    "sqrt",
    "stack",
    "sum_",
    "tanh",
    "where",
    "gradcheck",
    "numerical_gradient",
]
