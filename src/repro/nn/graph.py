"""Graph convolution layers.

Four flavours are provided, matching the models evaluated in the paper:

* :class:`GCNLayer` — the vanilla first-order GCN propagation rule
  ``S((I + D^-1/2 A D^-1/2) Z W + b)`` (paper Eq. 3).
* :class:`ChebConv` — Chebyshev polynomial filtering used by ST-GCN.
* :class:`DiffusionConv` — forward/backward random-walk diffusion used by
  DCRNN and GraphWaveNet.
* :class:`AVWGCN` + :class:`AdaptiveAdjacency` — the adaptive graph
  convolution with Node Adaptive Parameter Learning from AGCRN
  (paper Eqs. 4–5), which is the spatial block of DeepSTUQ itself.

Support matrices are dense NumPy arrays; road networks in the evaluation
have at most a few hundred nodes, so dense propagation is simple and fast
enough for the NumPy substrate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor import functional as F


def _as_support(support) -> Tensor:
    """Wrap a (N, N) support matrix as a constant Tensor."""
    if isinstance(support, Tensor):
        return support.detach()
    return Tensor(np.asarray(support, dtype=np.float64))


class GCNLayer(Module):
    """First-order graph convolution with a fixed, pre-normalized support.

    Parameters
    ----------
    in_features, out_features:
        Feature dimensions of the node signal.
    support:
        Pre-normalized propagation matrix ``I + D^-1/2 A D^-1/2`` of shape
        ``(num_nodes, num_nodes)``; see :mod:`repro.graph.adjacency`.
    activation:
        ``"sigmoid"``, ``"relu"``, ``"tanh"`` or ``None`` for linear output.
    """

    _ACTIVATIONS = {
        "sigmoid": lambda t: t.sigmoid(),
        "relu": lambda t: t.relu(),
        "tanh": lambda t: t.tanh(),
        None: lambda t: t,
    }

    def __init__(
        self,
        in_features: int,
        out_features: int,
        support,
        activation: Optional[str] = "relu",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if activation not in self._ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.support = _as_support(support)
        self.activation = activation
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng=rng))
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        """Propagate a node signal of shape ``(batch, num_nodes, in_features)``."""
        aggregated = self.support.matmul(x) if x.ndim == 2 else _batch_propagate(self.support, x)
        out = aggregated.matmul(self.weight) + self.bias
        return self._ACTIVATIONS[self.activation](out)


def _batch_propagate(support: Tensor, x: Tensor) -> Tensor:
    """Apply ``support @ x`` where ``x`` has shape (batch, N, C)."""
    # (B, N, C) -> (B, N, C): matmul broadcasting of (N, N) over the batch axis.
    return support.matmul(x)


class ChebConv(Module):
    """Chebyshev spectral graph convolution of order ``K``.

    Filters the node signal with ``sum_k T_k(L_tilde) X W_k`` where the
    Chebyshev polynomials of the scaled Laplacian are precomputed as dense
    supports (see :func:`repro.graph.adjacency.chebyshev_polynomials`).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        supports: Sequence[np.ndarray],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not supports:
            raise ValueError("ChebConv requires at least one support matrix")
        self.in_features = in_features
        self.out_features = out_features
        self.supports = [_as_support(s) for s in supports]
        self.order = len(self.supports)
        self.weight = Parameter(
            init.xavier_uniform((self.order * in_features, out_features), rng=rng)
        )
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        """Input/output shape ``(batch, num_nodes, features)``."""
        propagated = [support.matmul(x) for support in self.supports]
        stacked = F.cat(propagated, axis=-1)
        return stacked.matmul(self.weight) + self.bias


class DiffusionConv(Module):
    """Bidirectional random-walk diffusion convolution (DCRNN).

    ``supports`` should contain the forward and backward transition matrices
    ``D_O^-1 A`` and ``D_I^-1 A^T``; each is expanded to ``max_step`` powers.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        supports: Sequence[np.ndarray],
        max_step: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if max_step < 1:
            raise ValueError("max_step must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.max_step = max_step
        expanded: List[Tensor] = [Tensor(np.eye(np.asarray(supports[0]).shape[0]))]
        for support in supports:
            base = np.asarray(support, dtype=np.float64)
            power = np.eye(base.shape[0])
            for _ in range(max_step):
                power = power @ base
                expanded.append(Tensor(power.copy()))
        self.supports = expanded
        self.num_matrices = len(expanded)
        self.weight = Parameter(
            init.xavier_uniform((self.num_matrices * in_features, out_features), rng=rng)
        )
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        """Input/output shape ``(batch, num_nodes, features)``."""
        propagated = [support.matmul(x) for support in self.supports]
        stacked = F.cat(propagated, axis=-1)
        return stacked.matmul(self.weight) + self.bias


class AdaptiveAdjacency(Module):
    """Learned normalized adjacency ``softmax(ReLU(E E^T))`` (paper Eq. 4).

    The node-embedding matrix ``E`` is the only parameter; it is shared with
    the :class:`AVWGCN` layers that use Node Adaptive Parameter Learning.
    """

    def __init__(
        self,
        num_nodes: int,
        embed_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if embed_dim <= 0 or num_nodes <= 0:
            raise ValueError("num_nodes and embed_dim must be positive")
        self.num_nodes = num_nodes
        self.embed_dim = embed_dim
        self.embeddings = Parameter(init.normal((num_nodes, embed_dim), std=0.1, rng=rng))

    def forward(self) -> Tensor:
        """Return the learned (num_nodes, num_nodes) propagation matrix."""
        scores = self.embeddings.matmul(self.embeddings.transpose()).relu()
        return F.softmax(scores, axis=-1)


class AVWGCN(Module):
    """Adaptive graph convolution with Node Adaptive Parameter Learning.

    Implements paper Eq. 5: ``Z' = S((I + A_hat) Z E W_g + E b_g)`` where the
    per-node weights are generated from the shared node embeddings ``E`` via
    a weight pool, and the propagation matrix ``A_hat`` is produced by
    :class:`AdaptiveAdjacency`.  An optional dropout mask (Eq. 13) is applied
    by the caller.

    Input/output shape: ``(batch, num_nodes, features)``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        embed_dim: int,
        cheb_k: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if cheb_k < 1:
            raise ValueError("cheb_k must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.embed_dim = embed_dim
        self.cheb_k = cheb_k
        self.weight_pool = Parameter(
            init.xavier_uniform((embed_dim, cheb_k * in_features * out_features), rng=rng)
        )
        self.bias_pool = Parameter(init.zeros((embed_dim, out_features)))

    def node_parameters(
        self, adjacency: Tensor, embeddings: Tensor
    ) -> Tuple[List[Tensor], Tensor, Tensor]:
        """The parameters of Eqs. 4-5 that one forward shares across its steps.

        Returns the supports ``T_1 .. T_{K-1}`` (``T_0 = I`` is applied as
        the identity, so it is left out), the node-adaptive weights
        ``(N, K*C_in, C_out)`` and the node-adaptive bias ``(N, C_out)``.
        """
        num_nodes = embeddings.shape[0]
        # Chebyshev-style support set: T_0 = I, T_1 = A_hat, T_k = 2 A T_{k-1} - T_{k-2}.
        # Only T_2 reads T_0, so I is built only when there is a T_2.
        supports = [Tensor(np.eye(num_nodes)) if self.cheb_k >= 3 else None, adjacency]
        for _ in range(2, self.cheb_k):
            supports.append(2.0 * adjacency.matmul(supports[-1]) - supports[-2])
        weights = embeddings.matmul(self.weight_pool).reshape(
            num_nodes, self.cheb_k * self.in_features, self.out_features
        )
        bias = embeddings.matmul(self.bias_pool)
        return supports[1 : self.cheb_k], weights, bias

    def forward(self, x: Tensor, adjacency: Tensor, embeddings: Tensor) -> Tensor:
        """Propagate ``x`` (batch, N, C_in) with the learned adjacency.

        Parameters
        ----------
        x:
            Node signal of shape ``(batch, num_nodes, in_features)``.
        adjacency:
            Learned propagation matrix from :class:`AdaptiveAdjacency`.
        embeddings:
            Node-embedding parameter shared across layers, shape
            ``(num_nodes, embed_dim)``.
        """
        supports, weights, bias = self.node_parameters(adjacency, embeddings)
        # (B, N, K * C_in): the propagated signals over supports; T_0 x is x.
        propagated = F.cat([x] + [support.matmul(x) for support in supports], axis=-1)
        # One GEMM per node: (N, B, K*C_in) @ (N, K*C_in, C_out) -> (B, N, C_out).
        out = propagated.transpose(1, 0, 2).matmul(weights).transpose(1, 0, 2)
        return out + bias
