"""Base classes for trainable modules: :class:`Parameter` and :class:`Module`.

The design mirrors ``torch.nn.Module``: parameters and sub-modules are
registered automatically on attribute assignment, ``parameters()`` walks the
tree, ``state_dict()`` / ``load_state_dict()`` serialize weights as plain
NumPy arrays, and ``train()`` / ``eval()`` toggle the training flag used by
dropout and batch normalization.

Prediction does not use that flag.  It runs inside :func:`inference`, a
thread-local mode in the pattern of :func:`~repro.tensor.no_grad`, so a
forward writes nothing to the modules and any number of threads can run
forwards over one shared model at once.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import Tensor, no_grad

# Inference mode is *thread-local*, like grad mode: the server runs the
# forwards of two micro-batches at once over one shared model, each on its
# own worker thread and each with its own dropout streams.
_INFERENCE = threading.local()

#: What :func:`inference` accepts as ``streams``.
Streams = Union[np.random.Generator, Sequence[np.random.Generator]]


@contextlib.contextmanager
def inference(streams: Optional[Streams] = None):
    """Run this thread's forwards as inference: eval-mode layers, no tape.

    Inside the block :class:`~repro.nn.Dropout` and
    :class:`~repro.nn.BatchNorm1d` act as in eval mode whatever a module's
    ``training`` flag says, and no operation is recorded for autodiff.  With
    ``streams`` given, dropout stays on (MC dropout) and draws its masks
    from them: one generator, which every layer draws from in call order,
    or one generator per MC sample folded into the batch axis (see
    :func:`~repro.tensor.functional.dropout_mask`).  Other threads keep
    their own mode, and no module is written to.
    """
    previous = (in_inference(), inference_streams())
    _INFERENCE.active, _INFERENCE.streams = True, streams
    try:
        with no_grad():
            yield
    finally:
        _INFERENCE.active, _INFERENCE.streams = previous


def in_inference() -> bool:
    """Whether this thread is inside an :func:`inference` block."""
    return getattr(_INFERENCE, "active", False)


def inference_streams() -> Optional[Streams]:
    """The dropout streams of this thread's innermost :func:`inference` block."""
    return getattr(_INFERENCE, "streams", None)


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable parameter of a :class:`Module`."""

    __slots__ = ()

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Sub-classes define parameters and sub-modules as attributes in
    ``__init__`` and implement :meth:`forward`.  Calling the module invokes
    ``forward``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a sub-module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError("Module subclasses must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Parameter iteration
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its descendants."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs over the module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------ #
    # Training state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set the module (recursively) to training mode."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set the module (recursively) to evaluation mode."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear the gradient buffers of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by its qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from a :meth:`state_dict`-style mapping.

        Every name and shape is checked before any weight is written, so a
        mismatched checkpoint leaves the module untouched.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        values = {
            name: np.asarray(state[name], dtype=param.data.dtype)
            for name, param in own.items()
            if name in state
        }
        for name, value in values.items():
            if value.shape != own[name].data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {own[name].data.shape}, got {value.shape}"
                )
        for name, value in values.items():
            own[name].data[...] = value

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {module.__class__.__name__}" for name, module in self._modules.items()]
        body = "\n".join(child_lines)
        if body:
            return f"{self.__class__.__name__}(\n{body}\n)"
        return f"{self.__class__.__name__}()"
