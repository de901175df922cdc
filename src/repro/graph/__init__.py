"""Road-network substrate: graph construction, generators and normalizations.

A traffic sensor network is modelled as an undirected weighted graph whose
nodes are sensors and whose edges are road segments (paper Section IV-A).
This package provides the :class:`RoadNetwork` container, synthetic network
generators that match the topology statistics of the PEMS datasets, and the
adjacency normalizations used by the different graph convolutions.
"""

from repro.graph.road_network import RoadNetwork
from repro.graph.generators import (
    corridor_network,
    grid_network,
    pems_like_network,
    ring_network,
)
from repro.graph.adjacency import (
    chebyshev_polynomials,
    diffusion_supports,
    gcn_support,
    normalized_laplacian,
    random_walk_matrix,
    scaled_laplacian,
    symmetric_normalized_adjacency,
)

__all__ = [
    "RoadNetwork",
    "grid_network",
    "ring_network",
    "corridor_network",
    "pems_like_network",
    "symmetric_normalized_adjacency",
    "gcn_support",
    "normalized_laplacian",
    "scaled_laplacian",
    "random_walk_matrix",
    "chebyshev_polynomials",
    "diffusion_supports",
]
