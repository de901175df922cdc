"""Functional interface over :class:`repro.tensor.Tensor`.

These helpers mirror a small subset of ``torch.nn.functional`` / ``torch``
top-level functions.  They exist so layer and loss code can be written in the
familiar functional style while the differentiation machinery lives on the
``Tensor`` class itself.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.tensor import Tensor, _unbroadcast

ArrayLike = Union[float, int, list, tuple, np.ndarray, Tensor]


def _as_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# --------------------------------------------------------------------------- #
# Thin wrappers over Tensor methods
# --------------------------------------------------------------------------- #
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    return _as_tensor(a) + _as_tensor(b)


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    return _as_tensor(a).matmul(_as_tensor(b))


def exp(x: ArrayLike) -> Tensor:
    return _as_tensor(x).exp()


def log(x: ArrayLike) -> Tensor:
    return _as_tensor(x).log()


def sqrt(x: ArrayLike) -> Tensor:
    return _as_tensor(x).sqrt()


def tanh(x: ArrayLike) -> Tensor:
    return _as_tensor(x).tanh()


def sigmoid(x: ArrayLike) -> Tensor:
    return _as_tensor(x).sigmoid()


def relu(x: ArrayLike) -> Tensor:
    return _as_tensor(x).relu()


def clip(x: ArrayLike, low: Optional[float] = None, high: Optional[float] = None) -> Tensor:
    return _as_tensor(x).clip(low, high)


def sum(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _as_tensor(x).sum(axis=axis, keepdims=keepdims)


def mean(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    return _as_tensor(x).mean(axis=axis, keepdims=keepdims)


def abs(x: ArrayLike) -> Tensor:  # noqa: A001
    return _as_tensor(x).abs()


def var(x: ArrayLike, axis=None, keepdims: bool = False, ddof: int = 0) -> Tensor:
    return _as_tensor(x).var(axis=axis, keepdims=keepdims, ddof=ddof)


def std(x: ArrayLike, axis=None, keepdims: bool = False, ddof: int = 0) -> Tensor:
    return _as_tensor(x).std(axis=axis, keepdims=keepdims, ddof=ddof)


# --------------------------------------------------------------------------- #
# Compound / multi-input operations
# --------------------------------------------------------------------------- #
def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum with subgradient split evenly on ties."""
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = np.maximum(a.data, b.data)
    a_mask = (a.data > b.data).astype(out_data.dtype)
    tie = (a.data == b.data).astype(out_data.dtype) * 0.5

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * (a_mask + tie))
        b._accumulate(grad * (1.0 - a_mask - tie))

    return Tensor._make(out_data, (a, b), backward)


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    return -maximum(-_as_tensor(a), -_as_tensor(b))


def where(condition: Union[np.ndarray, Tensor], a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select elements from ``a`` where ``condition`` is true, else from ``b``."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * cond)
        b._accumulate(grad * (~cond))

    return Tensor._make(out_data, (a, b), backward)


def cat(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.split(grad, len(tensors), axis=axis)
        for tensor, slab in zip(tensors, slabs):
            tensor._accumulate(np.squeeze(slab, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def dropout_mask(
    shape: Tuple[int, ...],
    rate: float,
    rng: Union[np.random.Generator, Sequence[np.random.Generator]],
) -> np.ndarray:
    """Sample an inverted-dropout mask (scaled by ``1 / keep_prob``).

    ``rng`` may be a sequence of generators: the leading axis is then split
    into that many equal slabs and slab ``s`` is drawn from ``rng[s]``.  Each
    slab is exactly the mask a separate call with ``rng[s]`` and the slab's
    shape returns.  All slabs are drawn into one buffer, which is then
    thresholded and scaled in place.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = np.empty(shape)
    if isinstance(rng, np.random.Generator):
        rng.random(out=mask)
    else:
        streams = list(rng)
        if shape[0] % len(streams) != 0:
            raise ValueError(
                f"a mask of {shape[0]} rows does not split into {len(streams)} equal slabs"
            )
        # Row s of this view is slab s, flat in C order: the order a draw
        # of the slab's own shape fills it in.
        slabs = mask.reshape(len(streams), mask.size // len(streams))
        for stream, slab in zip(streams, slabs):
            stream.random(out=slab)
    keep = 1.0 - rate
    np.less(mask, keep, out=mask)
    # The mask holds 0s and 1s here, so scaling by 1 / keep rounds exactly
    # like dividing by keep, and a multiply is cheaper than a divide.
    mask *= 1.0 / keep
    return mask


def l1_loss(prediction: ArrayLike, target: ArrayLike, reduce: bool = True) -> Tensor:
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    loss = (prediction - target).abs()
    return loss.mean() if reduce else loss


def mse_loss(  # repro: noqa[unused/symbol] tests/optim/test_optimizers.py
    prediction: ArrayLike, target: ArrayLike, reduce: bool = True
) -> Tensor:
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    diff = prediction - target
    loss = diff * diff
    return loss.mean() if reduce else loss


def pinball_loss(prediction: ArrayLike, target: ArrayLike, quantile: float) -> Tensor:
    """Quantile (pinball) loss for quantile-regression baselines."""
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    diff = target - prediction
    return maximum(quantile * diff, (quantile - 1.0) * diff).mean()
