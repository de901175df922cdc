"""Finite-difference gradient checking utilities.

Every differentiable operation and layer in the reproduction is validated
against central finite differences using :func:`gradcheck`.  This is the
primary correctness guarantee for the from-scratch autodiff substrate.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor


def numerical_gradient(
    func: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central finite-difference gradient of ``func`` w.r.t. ``inputs[index]``.

    ``func`` must return a scalar Tensor.  The input tensors are perturbed
    in place (and restored) one element at a time.
    """
    target = inputs[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func(*inputs).item()
        flat[i] = original - eps
        minus = func(*inputs).item()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(  # repro: noqa[unused/symbol] the reference tests/tensor/test_gradcheck.py uses
    func: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-4,
    rtol: float = 1e-3,
) -> bool:
    """Check analytic gradients of ``func`` against finite differences.

    Parameters
    ----------
    func:
        Callable mapping the input tensors to a scalar Tensor.
    inputs:
        Tensors to differentiate with respect to; each must have
        ``requires_grad=True``.

    Returns
    -------
    bool
        ``True`` when all analytic gradients match the numerical ones within
        the given tolerances; raises ``AssertionError`` otherwise so pytest
        failures carry the offending values.
    """
    for tensor in inputs:
        if not tensor.requires_grad:
            raise ValueError("all gradcheck inputs must require grad")
        tensor.zero_grad()

    output = func(*inputs)
    if output.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    output.backward()

    for index, tensor in enumerate(inputs):
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(func, inputs, index, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            max_err = float(np.max(np.abs(analytic - numeric)))
            raise AssertionError(
                f"gradient mismatch for input {index}: max abs error {max_err:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
