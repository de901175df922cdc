"""The :class:`RoadNetwork` container."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np


class RoadNetwork:
    """An undirected, weighted road-sensor graph.

    Parameters
    ----------
    num_nodes:
        Number of sensors in the network.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, weight)`` tuples with
        ``0 <= u, v < num_nodes``.  Duplicate edges and self-loops are
        rejected so the edge count matches the dataset statistics exactly.
    name:
        Optional human-readable name (e.g. ``"PEMS08"``).
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, ...]],
        name: str = "road-network",
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = int(num_nodes)
        self.name = name
        self._edges: List[Tuple[int, int, float]] = []
        seen = set()
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                weight = 1.0
            elif len(edge) == 3:
                u, v, weight = edge
            else:
                raise ValueError(f"edges must be (u, v) or (u, v, weight), got {edge}")
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) references a node outside [0, {num_nodes})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            self._edges.append((u, v, float(weight)))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> List[Tuple[int, int, float]]:
        return list(self._edges)

    def degree(self) -> np.ndarray:
        """Unweighted degree of every node."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        for u, v, _ in self._edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency_matrix(self, weighted: bool = True) -> np.ndarray:
        """Dense symmetric adjacency matrix."""
        adj = np.zeros((self.num_nodes, self.num_nodes))
        for u, v, weight in self._edges:
            value = weight if weighted else 1.0
            adj[u, v] = value
            adj[v, u] = value
        return adj

    def to_networkx(self) -> nx.Graph:
        """Export as a ``networkx.Graph`` (used for connectivity checks)."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_weighted_edges_from(self._edges)
        return graph

    def is_connected(self) -> bool:  # repro: noqa[unused/symbol] tests/graph/test_road_network.py
        return nx.is_connected(self.to_networkx())

    def neighbors(self, node: int) -> List[int]:
        result = []
        for u, v, _ in self._edges:
            if u == node:
                result.append(v)
            elif v == node:
                result.append(u)
        return sorted(result)

    def shortest_path_hops(self) -> np.ndarray:
        """All-pairs shortest-path hop counts (``inf`` for disconnected pairs).

        Used by the synthetic traffic generator to create spatially correlated
        signals whose correlation decays with network distance.
        """
        graph = self.to_networkx()
        hops = np.full((self.num_nodes, self.num_nodes), np.inf)
        for source, lengths in nx.all_pairs_shortest_path_length(graph):
            for target, length in lengths.items():
                hops[source, target] = length
        return hops

    def __repr__(self) -> str:
        return f"RoadNetwork(name={self.name!r}, nodes={self.num_nodes}, edges={self.num_edges})"
