"""STFGNN — Spatial-Temporal Fusion Graph Neural Network (Li & Zhu, AAAI 2021).

Combines (i) a *fusion graph* that augments the physical road graph with a
data-driven temporal-similarity graph, processed by graph convolutions, and
(ii) a gated dilated CNN branch that captures long-range temporal patterns;
the two branches are fused before the output projection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.graph.adjacency import gcn_support
from repro.models.base import ForecastModel
from repro.tensor import Tensor
from repro.tensor import functional as F


def temporal_similarity_graph(values: np.ndarray, top_k: int = 4) -> np.ndarray:
    """Data-driven graph connecting sensors with similar historical profiles.

    This is a lightweight stand-in for STFGNN's DTW-based temporal graph: the
    (absolute) Pearson correlation between sensor series defines similarity,
    and each sensor keeps its ``top_k`` most similar peers.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be (num_steps, num_nodes)")
    num_nodes = values.shape[1]
    centered = values - values.mean(axis=0, keepdims=True)
    std = centered.std(axis=0, keepdims=True)
    std[std == 0] = 1.0
    corr = np.abs((centered / std).T @ (centered / std) / values.shape[0])
    np.fill_diagonal(corr, 0.0)
    graph = np.zeros_like(corr)
    k = min(top_k, num_nodes - 1)
    for node in range(num_nodes):
        neighbours = np.argsort(corr[node])[-k:]
        graph[node, neighbours] = 1.0
        graph[neighbours, node] = 1.0
    return graph


class STFGNN(ForecastModel):
    """Fusion-graph convolutions + a gated dilated CNN branch."""

    requires_adjacency = True

    def __init__(
        self,
        num_nodes: int,
        adjacency: np.ndarray,
        history: int = 12,
        horizon: int = 12,
        hidden_channels: int = 16,
        temporal_graph: Optional[np.ndarray] = None,
        kernel_size: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_nodes, history, horizon)
        rng = rng if rng is not None else np.random.default_rng()
        adjacency = np.asarray(adjacency, dtype=np.float64)
        fusion = adjacency.copy()
        if temporal_graph is not None:
            temporal_graph = np.asarray(temporal_graph, dtype=np.float64)
            if temporal_graph.shape != adjacency.shape:
                raise ValueError("temporal_graph must have the same shape as adjacency")
            fusion = np.clip(fusion + temporal_graph, 0.0, 1.0)
        self.spatial_conv1 = nn.GCNLayer(1, hidden_channels, gcn_support(fusion), activation="relu", rng=rng)
        self.spatial_conv2 = nn.GCNLayer(
            hidden_channels, hidden_channels, gcn_support(fusion), activation="relu", rng=rng
        )
        self.temporal_branch = nn.Sequential(
            nn.GatedTemporalConv(1, hidden_channels, kernel_size, dilation=1, rng=rng),
            nn.GatedTemporalConv(hidden_channels, hidden_channels, kernel_size, dilation=2, rng=rng),
        )
        self.output = nn.Linear(2 * history * hidden_channels, horizon, rng=rng)

    def forward(self, x) -> Tensor:
        x = self._validate_input(x)
        batch = x.shape[0]
        signal = x.unsqueeze(-1)  # (B, T, N, 1)

        # Spatial branch: fusion-graph convolution applied per time step.
        flattened = signal.reshape(batch * self.history, self.num_nodes, 1)
        spatial = self.spatial_conv2(self.spatial_conv1(flattened))
        spatial = spatial.reshape(batch, self.history, self.num_nodes, -1)

        # Temporal branch: gated dilated CNN over the time axis.
        temporal = self.temporal_branch(signal)

        fused = F.cat([spatial, temporal], axis=-1)  # (B, T, N, 2C)
        collapsed = fused.transpose(0, 2, 1, 3).reshape(batch, self.num_nodes, -1)
        return self.output(collapsed).transpose(0, 2, 1)
