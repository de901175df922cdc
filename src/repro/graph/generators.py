"""Synthetic road-network generators.

The real PEMS networks are freeway sensor networks: long corridors of
consecutive detectors joined at interchanges, giving sparse graphs whose
edge count is close to the node count (average degree about 2-3).
:func:`pems_like_network` reproduces exactly that structure for a requested
``(num_nodes, num_edges)`` pair so the synthetic datasets report the same
Table I statistics as the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.road_network import RoadNetwork


def ring_network(  # repro: noqa[unused/symbol] test network for tests/data and tests/graph
    num_nodes: int, name: str = "ring"
) -> RoadNetwork:
    """A simple ring: every sensor connected to its two neighbours."""
    if num_nodes < 3:
        raise ValueError("a ring needs at least 3 nodes")
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    return RoadNetwork(num_nodes, edges, name=name)


def grid_network(rows: int, cols: int, name: str = "grid") -> RoadNetwork:
    """A rows x cols Manhattan-style grid of sensors."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return RoadNetwork(rows * cols, edges, name=name)


def corridor_network(
    num_nodes: int,
    num_corridors: int = 4,
    rng: Optional[np.random.Generator] = None,
    name: str = "corridor",
) -> RoadNetwork:
    """Several freeway corridors (paths) joined by random interchange links."""
    if num_corridors < 1 or num_nodes < num_corridors * 2:
        raise ValueError("need at least two nodes per corridor")
    rng = rng if rng is not None else np.random.default_rng()
    sizes = np.full(num_corridors, num_nodes // num_corridors)
    sizes[: num_nodes % num_corridors] += 1
    edges = []
    start = 0
    corridor_nodes = []
    for size in sizes:
        nodes = list(range(start, start + size))
        corridor_nodes.append(nodes)
        edges.extend((nodes[i], nodes[i + 1]) for i in range(size - 1))
        start += size
    # Interchanges: connect consecutive corridors at random positions.
    for a, b in zip(corridor_nodes[:-1], corridor_nodes[1:]):
        edges.append((int(rng.choice(a)), int(rng.choice(b))))
    return RoadNetwork(num_nodes, edges, name=name)


def pems_like_network(
    num_nodes: int,
    num_edges: int,
    seed: int = 0,
    name: str = "pems-like",
) -> RoadNetwork:
    """A connected freeway-style network with exactly ``num_edges`` edges.

    The construction starts from a spanning set of corridors (paths), which
    uses ``num_nodes - num_corridors`` edges, links the corridors into one
    connected component, and then adds interchange shortcuts between nearby
    corridor positions until the requested edge budget is met.  If the budget
    is below ``num_nodes - 1`` the network is a forest of corridors plus as
    many links as the budget allows (PEMS04 and PEMS07 have fewer edges than
    nodes, i.e. their sensor graphs are not connected).
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    min_edges = num_nodes // 2  # keep things road-like even for tiny budgets
    if num_edges < min_edges:
        raise ValueError(f"num_edges={num_edges} too small for {num_nodes} nodes")
    max_edges = num_nodes * (num_nodes - 1) // 2  # the complete graph
    if num_edges > max_edges:
        raise ValueError(
            f"num_edges={num_edges} exceeds the {max_edges} node pairs of {num_nodes} nodes"
        )
    rng = np.random.default_rng(seed)

    # Choose a corridor count so corridors alone stay within the edge budget.
    num_corridors = max(1, num_nodes - num_edges + max(0, (num_edges - num_nodes) // 4))
    num_corridors = min(num_corridors, num_nodes // 2)
    num_corridors = max(num_corridors, 1)

    order = rng.permutation(num_nodes)
    corridors = np.array_split(order, num_corridors)
    edges = set()

    def add_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        key = (min(u, v), max(u, v))
        if key in edges:
            return False
        edges.add(key)
        return True

    for corridor in corridors:
        for u, v in zip(corridor[:-1], corridor[1:]):
            if len(edges) >= num_edges:
                break
            add_edge(int(u), int(v))

    # Link consecutive corridors so the graph tends toward a single component.
    for a, b in zip(corridors[:-1], corridors[1:]):
        if len(edges) >= num_edges:
            break
        add_edge(int(rng.choice(a)), int(rng.choice(b)))

    # Spend the remaining budget on interchange shortcuts between random
    # sensors that are near each other in corridor order (locality keeps the
    # graph planar-ish like a real road network).
    attempts = 0
    max_attempts = 50 * num_edges
    max_offset = max(3, num_nodes // 10)
    while len(edges) < num_edges and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(num_nodes))
        offset = int(rng.integers(1, max_offset))
        v = (u + offset) % num_nodes
        add_edge(u, v)

    # Rare fall-back for tight budgets on small graphs: any non-duplicate pair.
    while len(edges) < num_edges:
        u, v = rng.choice(num_nodes, size=2, replace=False)
        add_edge(int(u), int(v))

    return RoadNetwork(num_nodes, sorted(edges), name=name)
