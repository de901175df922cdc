"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The implementation follows the classic tape-based design: every operation
creates a new ``Tensor`` that remembers its parents and a closure computing
the local vector-Jacobian product.  Calling :meth:`Tensor.backward` performs a
topological sort of the recorded graph and accumulates gradients into the
``grad`` attribute of every leaf tensor that has ``requires_grad=True``.

Only the operations required by the DeepSTUQ reproduction are implemented,
but each of them supports full NumPy broadcasting and is validated against
finite differences in ``tests/tensor``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[float, int, list, tuple, np.ndarray, "Tensor"]

# Grad mode is *thread-local* (like torch): an inference thread inside
# ``no_grad()`` must not disable tape recording for a training loop running
# concurrently on another thread — the streaming subsystem refits replacement
# models in the background while serving threads keep predicting.
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded on the tape."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling gradient recording (like ``torch.no_grad``).

    The flag is per-thread: entering ``no_grad`` on one thread leaves
    training on other threads (e.g. a drift-triggered background refit)
    recording gradients normally.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    Broadcasting may have added leading dimensions and/or stretched axes of
    size one; the adjoint of broadcasting is summation over those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away extra leading dimensions.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were stretched from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of floats.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` for this
        tensor during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 1000  # ensure ndarray.__mul__ defers to Tensor.__rmul__

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (valid for scalar outputs).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp(log(x) * y)")
        exponent = float(exponent)
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self.matmul(other)

    # Comparison operators return plain boolean arrays (no gradient flows).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: Optional[float] = None, high: Optional[float] = None) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_full = grad
            if axis is not None and not keepdims:
                grad_full = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad_full, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / self._axis_count(axis))

    def _axis_count(self, axis) -> int:
        if axis is None:
            return self.data.size
        axes = axis if isinstance(axis, tuple) else (axis,)
        return int(np.prod([self.data.shape[a] for a in axes]))

    def var(self, axis=None, keepdims: bool = False, ddof: int = 0) -> "Tensor":
        """Variance along ``axis`` with ``count - ddof`` in the denominator.

        When ``ddof`` leaves no degrees of freedom (e.g. the sample variance
        of a single Monte-Carlo draw) the result is zero rather than NaN, so
        downstream uncertainty decompositions stay finite.
        """
        count = self._axis_count(axis)
        if count - ddof <= 0:
            return (self * 0.0).sum(axis=axis, keepdims=keepdims)
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).sum(axis=axis, keepdims=keepdims) * (1.0 / (count - ddof))

    def std(self, axis=None, keepdims: bool = False, ddof: int = 0) -> "Tensor":
        """Standard deviation along ``axis``.

        The square root is taken through a NaN-safe node: where the variance
        is exactly zero (constant slices, or no degrees of freedom) both the
        value and the gradient are zero instead of NaN / infinite.
        """
        variance = self.var(axis=axis, keepdims=keepdims, ddof=ddof)
        out_data = np.sqrt(np.maximum(variance.data, 0.0))

        def backward(grad: np.ndarray) -> None:
            safe = np.where(out_data > 0.0, out_data, 1.0)
            variance._accumulate(np.where(out_data > 0.0, grad * 0.5 / safe, 0.0))

        return Tensor._make(out_data, (variance,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_full = grad
            out_full = out_data
            if axis is not None and not keepdims:
                grad_full = np.expand_dims(grad, axis=axis)
                out_full = np.expand_dims(out_data, axis=axis)
            mask = (self.data == out_full).astype(self.data.dtype)
            # Split gradient evenly between ties to keep the op well-defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(grad_full * mask / counts)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        original_shape = self.data.shape
        out_data = self.data.squeeze(axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        original_shape = self.data.shape
        out_data = np.expand_dims(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        out_data = np.broadcast_to(self.data, shape).copy()

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = np.matmul(self.data, other.data)
        a, b = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            if a.ndim == 1 and b.ndim == 1:
                # inner product
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            a_mat = a if a.ndim > 1 else a.reshape(1, -1)
            b_mat = b if b.ndim > 1 else b.reshape(-1, 1)
            grad_mat = grad
            if a.ndim == 1:
                grad_mat = np.expand_dims(grad, -2)
            if b.ndim == 1:
                grad_mat = np.expand_dims(grad_mat, -1)
            grad_a = np.matmul(grad_mat, np.swapaxes(b_mat, -1, -2))
            grad_b = np.matmul(np.swapaxes(a_mat, -1, -2), grad_mat)
            if a.ndim == 1:
                grad_a = grad_a.reshape(a.shape) if grad_a.size == a.size else _unbroadcast(
                    grad_a.sum(axis=-2), a.shape
                )
            else:
                grad_a = _unbroadcast(grad_a, a.shape)
            if b.ndim == 1:
                grad_b = grad_b.reshape(b.shape) if grad_b.size == b.size else _unbroadcast(
                    grad_b.sum(axis=-1), b.shape
                )
            else:
                grad_b = _unbroadcast(grad_b, b.shape)
            self._accumulate(grad_a)
            other._accumulate(grad_b)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def eye(n: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.eye(n), requires_grad=requires_grad)
