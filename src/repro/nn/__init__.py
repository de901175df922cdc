"""Neural-network layers built on the :mod:`repro.tensor` autodiff substrate.

The layer zoo covers everything the DeepSTUQ paper and its baselines need:
linear projections, dropout (MC-sampled inside the thread-local
:func:`inference` mode), gated recurrent units, graph convolutions (vanilla
GCN, Chebyshev, diffusion, and the adaptive AVWGCN / NAPL variant from
AGCRN), causal temporal convolutions, attention blocks, and normalization
layers.
"""

from repro.nn.module import Module, Parameter, inference
from repro.nn.container import ModuleList, Sequential
from repro.nn.linear import Linear
from repro.nn.dropout import Dropout
from repro.nn.conv import CausalConv1d, GatedTemporalConv
from repro.nn.rnn import GRU, GRUCell
from repro.nn.graph import (
    AdaptiveAdjacency,
    AVWGCN,
    ChebConv,
    DiffusionConv,
    GCNLayer,
)
from repro.nn.attention import SpatialAttention, TemporalAttention
from repro.nn.normalization import BatchNorm1d, LayerNorm
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "inference",
    "ModuleList",
    "Sequential",
    "Linear",
    "Dropout",
    "CausalConv1d",
    "GatedTemporalConv",
    "GRU",
    "GRUCell",
    "AdaptiveAdjacency",
    "AVWGCN",
    "ChebConv",
    "DiffusionConv",
    "GCNLayer",
    "SpatialAttention",
    "TemporalAttention",
    "BatchNorm1d",
    "LayerNorm",
    "init",
]
