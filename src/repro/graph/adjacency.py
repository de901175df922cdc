"""Adjacency normalizations and graph-spectral utilities.

These produce the dense support matrices consumed by the graph-convolution
layers in :mod:`repro.nn.graph`:

* :func:`gcn_support` — ``I + D^-1/2 A D^-1/2`` (paper Eq. 3).
* :func:`symmetric_normalized_adjacency` — ``D^-1/2 A D^-1/2``.
* :func:`random_walk_matrix` — ``D^-1 A`` used by diffusion convolution.
* :func:`scaled_laplacian` / :func:`chebyshev_polynomials` — ChebNet supports.
"""

from __future__ import annotations

from typing import List

import numpy as np


def _validate_square(adjacency: np.ndarray) -> np.ndarray:
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if np.any(adjacency < 0):
        raise ValueError("adjacency weights must be non-negative")
    return adjacency


def symmetric_normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """``D^-1/2 A D^-1/2`` with isolated nodes handled gracefully."""
    adjacency = _validate_square(adjacency)
    degree = adjacency.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    d_inv_sqrt = np.diag(inv_sqrt)
    return d_inv_sqrt @ adjacency @ d_inv_sqrt


def gcn_support(adjacency: np.ndarray) -> np.ndarray:
    """The propagation matrix ``I + D^-1/2 A D^-1/2`` of paper Eq. 3."""
    adjacency = _validate_square(adjacency)
    return np.eye(adjacency.shape[0]) + symmetric_normalized_adjacency(adjacency)


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian ``I - D^-1/2 A D^-1/2``."""
    adjacency = _validate_square(adjacency)
    return np.eye(adjacency.shape[0]) - symmetric_normalized_adjacency(adjacency)


def scaled_laplacian(adjacency: np.ndarray, lambda_max: float = None) -> np.ndarray:
    """Laplacian rescaled to ``[-1, 1]``: ``2 L / lambda_max - I`` (ChebNet)."""
    laplacian = normalized_laplacian(adjacency)
    if lambda_max is None:
        eigenvalues = np.linalg.eigvalsh(laplacian)
        lambda_max = float(eigenvalues.max())
    if lambda_max <= 0:
        lambda_max = 2.0
    return 2.0 * laplacian / lambda_max - np.eye(adjacency.shape[0])


def chebyshev_polynomials(adjacency: np.ndarray, order: int) -> List[np.ndarray]:
    """Chebyshev polynomials ``T_0 .. T_{order-1}`` of the scaled Laplacian."""
    if order < 1:
        raise ValueError("order must be >= 1")
    scaled = scaled_laplacian(adjacency)
    num_nodes = scaled.shape[0]
    polynomials = [np.eye(num_nodes)]
    if order > 1:
        polynomials.append(scaled)
    for _ in range(2, order):
        polynomials.append(2.0 * scaled @ polynomials[-1] - polynomials[-2])
    return polynomials


def random_walk_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Row-normalized transition matrix ``D^-1 A`` (forward random walk)."""
    adjacency = _validate_square(adjacency)
    degree = adjacency.sum(axis=1)
    inv = np.zeros_like(degree)
    nonzero = degree > 0
    inv[nonzero] = 1.0 / degree[nonzero]
    return np.diag(inv) @ adjacency


def diffusion_supports(adjacency: np.ndarray) -> List[np.ndarray]:
    """Forward and backward random-walk supports used by DCRNN."""
    adjacency = _validate_square(adjacency)
    return [random_walk_matrix(adjacency), random_walk_matrix(adjacency.T)]
