"""AGCRN — the base spatio-temporal architecture of DeepSTUQ.

Adaptive Graph Convolutional Recurrent Network (Bai et al., NeurIPS 2020),
exactly as described in Section IV-A/IV-B of the DeepSTUQ paper:

* the adjacency matrix is *learned* from node embeddings
  (``softmax(ReLU(E E^T))``, Eq. 4);
* the GRU gates replace their linear maps by the node-adaptive graph
  convolution :class:`~repro.nn.AVWGCN` (Eqs. 5-6);
* dropout is applied to the graph-convolution output inside the encoder
  (Eq. 13) and to the decoder input, so Monte-Carlo dropout sampling is
  possible at inference time;
* the decoder consists of *independent* output heads (1x1 convolutions
  realized as per-node linear projections of the final hidden state) —
  a ``mean`` head and, for probabilistic variants, a ``log_var`` head
  (Section IV-C1).

The encoder has two implementations of one arithmetic.  Training runs
:meth:`AGCRN.encode`, whose Tensor ops record the tape.  Inside
:func:`repro.nn.inference` the forward runs :class:`_CellKernel`'s in-place
NumPy recurrence instead, which gives bit-identical outputs and draws the
same dropout masks in the same order, at about two thirds of the time (no
concatenation, no fresh array per op).  A change to the cell's math must go
into both; ``tests/models/test_agcrn_inference.py`` compares them bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.models.base import ForecastModel
from repro.nn.module import Module, Streams, in_inference, inference_streams
from repro.tensor import Tensor
from repro.tensor import functional as F


class AGCRNCell(Module):
    """GRU cell whose gates are adaptive graph convolutions (paper Eq. 6).

    State and input are node signals of shape ``(batch, num_nodes, dim)``.
    """

    def __init__(
        self,
        num_nodes: int,
        input_dim: int,
        hidden_dim: int,
        embed_dim: int,
        cheb_k: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.num_nodes = num_nodes
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.gate_conv = nn.AVWGCN(
            input_dim + hidden_dim, 2 * hidden_dim, embed_dim, cheb_k=cheb_k, rng=rng
        )
        self.candidate_conv = nn.AVWGCN(
            input_dim + hidden_dim, hidden_dim, embed_dim, cheb_k=cheb_k, rng=rng
        )

    def init_hidden(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.num_nodes, self.hidden_dim)))

    def forward(
        self,
        x: Tensor,
        hidden: Tensor,
        adjacency: Tensor,
        embeddings: Tensor,
        dropout: Optional[nn.Dropout] = None,
    ) -> Tensor:
        combined = F.cat([x, hidden], axis=-1)
        gates = self.gate_conv(combined, adjacency, embeddings)
        if dropout is not None:
            gates = dropout(gates)
        gates = gates.sigmoid()
        update = gates[:, :, : self.hidden_dim]
        reset = gates[:, :, self.hidden_dim :]
        candidate_input = F.cat([x, reset * hidden], axis=-1)
        candidate = self.candidate_conv(candidate_input, adjacency, embeddings)
        if dropout is not None:
            candidate = dropout(candidate)
        candidate = candidate.tanh()
        return update * hidden + (1.0 - update) * candidate


class _CellKernel:
    """One :class:`AGCRNCell`'s recurrence over one inference forward, in NumPy.

    It runs :meth:`AGCRNCell.forward`'s arithmetic, op for op, on buffers it
    allocates once and updates in place: ``[x, h]`` and its propagations go
    straight into one ``(rows, N, K*C_in)`` buffer, so no concatenation is
    left, and each per-node GEMM writes a C-contiguous ``(rows, N, C_out)``
    buffer.  The per-forward parameters come from
    :meth:`~repro.nn.AVWGCN.node_parameters`, the training path's own code.
    A kernel lives for one forward, so concurrent forwards share no buffer.
    """

    def __init__(self, cell: AGCRNCell, adjacency: Tensor, embeddings: Tensor, rows: int) -> None:
        self.convs = []
        for conv in (cell.gate_conv, cell.candidate_conv):
            supports, weights, bias = conv.node_parameters(adjacency, embeddings)
            self.convs.append(([support.data for support in supports], weights.data, bias.data))
        self.input_dim, self.hidden_dim = cell.input_dim, cell.hidden_dim
        self.width = cell.input_dim + cell.hidden_dim
        nodes = (rows, cell.num_nodes)
        self.stacked = np.empty(nodes + (cell.gate_conv.cheb_k * self.width,))
        self.hidden = np.zeros(nodes + (cell.hidden_dim,))
        self.gates = np.empty(nodes + (2 * cell.hidden_dim,))
        self.candidate = np.empty(nodes + (cell.hidden_dim,))
        self.update = np.empty(nodes + (cell.hidden_dim,))

    def _conv(self, index: int, out: np.ndarray) -> np.ndarray:
        """``AVWGCN.forward`` of ``stacked[..., :C_in]`` into ``out``."""
        supports, weights, bias = self.convs[index]
        signal = self.stacked[..., : self.width]
        for k, support in enumerate(supports, start=1):
            np.matmul(support, signal, out=self.stacked[..., k * self.width : (k + 1) * self.width])
        np.matmul(self.stacked.transpose(1, 0, 2), weights, out=out.transpose(1, 0, 2))
        out += bias
        return out

    def step(self, x: np.ndarray, rate: float, streams: Optional[Streams]) -> np.ndarray:
        """Advance the hidden state by one input ``x`` ``(rows, N, C_in)``; return it."""
        split, hidden = self.input_dim, self.hidden
        self.stacked[..., :split] = x
        self.stacked[..., split : self.width] = hidden
        gates = self._conv(0, self.gates)
        if streams is not None:
            gates *= F.dropout_mask(gates.shape, rate, streams)
        # Tensor.sigmoid: 1 / (1 + exp(-gates)).
        np.exp(np.negative(gates, out=gates), out=gates)
        gates += 1.0
        np.divide(1.0, gates, out=gates)
        # A contiguous copy of the update gate, so the GRU update below runs
        # on whole arrays instead of every other run of hidden_dim columns.
        update = self.update
        update[...] = gates[..., : self.hidden_dim]
        np.multiply(gates[..., self.hidden_dim :], hidden, out=self.stacked[..., split : self.width])
        candidate = self._conv(1, self.candidate)
        if streams is not None:
            candidate *= F.dropout_mask(candidate.shape, rate, streams)
        np.tanh(candidate, out=candidate)
        # update * hidden + (1 - update) * candidate
        hidden *= update
        candidate *= np.subtract(1.0, update, out=update)
        hidden += candidate
        return hidden


class AGCRN(ForecastModel):
    """Adaptive Graph Convolutional Recurrent Network with configurable heads.

    Parameters
    ----------
    num_nodes, history, horizon:
        Problem dimensions (Th = horizon = 12 in the paper).
    hidden_dim:
        GRU hidden width per node.
    embed_dim:
        Node-embedding dimension ``d`` of the adaptive adjacency (``d << N``).
    cheb_k:
        Graph-propagation order of the AVWGCN layers.
    num_layers:
        Number of stacked AGCRN cells in the encoder.
    encoder_dropout:
        Dropout rate applied to graph-convolution outputs inside the encoder
        (paper: 0.1 for the large networks, 0.05 for PEMS08).
    decoder_dropout:
        Dropout rate before the decoder heads (paper: 0.2).
    heads:
        Names of the decoder output heads.  ``("mean",)`` gives a point
        model; ``("mean", "log_var")`` the heteroscedastic model used by
        MVE / Combined / DeepSTUQ; ``("lower", "mean", "upper")`` the
        quantile-regression baseline.
    """

    def __init__(
        self,
        num_nodes: int,
        history: int = 12,
        horizon: int = 12,
        hidden_dim: int = 32,
        embed_dim: int = 8,
        cheb_k: int = 2,
        num_layers: int = 1,
        encoder_dropout: float = 0.1,
        decoder_dropout: float = 0.2,
        heads: Sequence[str] = ("mean", "log_var"),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_nodes, history, horizon)
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not heads or len(set(heads)) != len(heads):
            raise ValueError("heads must be a non-empty sequence of unique names")
        rng = rng if rng is not None else np.random.default_rng()
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim
        self.num_layers = num_layers
        self.head_names: Tuple[str, ...] = tuple(heads)

        self.adaptive_adjacency = nn.AdaptiveAdjacency(num_nodes, embed_dim, rng=rng)
        cells = []
        for layer in range(num_layers):
            input_dim = 1 if layer == 0 else hidden_dim
            cells.append(
                AGCRNCell(num_nodes, input_dim, hidden_dim, embed_dim, cheb_k=cheb_k, rng=rng)
            )
        self.cells = nn.ModuleList(cells)
        self.encoder_dropout = nn.Dropout(encoder_dropout, rng=rng)
        self.decoder_dropout = nn.Dropout(decoder_dropout, rng=rng)
        self.heads = nn.ModuleList(
            [nn.Linear(hidden_dim, horizon, rng=rng) for _ in self.head_names]
        )

    # ------------------------------------------------------------------ #
    def encode(self, x: Tensor) -> Tensor:
        """Run the recurrent encoder; returns the final hidden state (B, N, H)."""
        batch_size = x.shape[0]
        adjacency = self.adaptive_adjacency()
        embeddings = self.adaptive_adjacency.embeddings
        # (B, T, N) -> (B, T, N, 1)
        signal = x.unsqueeze(-1) if x.ndim == 3 else x
        states = [cell.init_hidden(batch_size) for cell in self.cells]
        for step in range(self.history):
            layer_input = signal[:, step, :, :]
            for index, cell in enumerate(self.cells):
                states[index] = cell(
                    layer_input, states[index], adjacency, embeddings, dropout=self.encoder_dropout
                )
                layer_input = states[index]
        return states[-1]

    def _encode_inference(self, x: Tensor) -> Tensor:
        """:meth:`encode` as an in-place NumPy recurrence (see :class:`_CellKernel`).

        Bit-identical to :meth:`encode` inside the same
        :func:`repro.nn.inference` block, including the masks it draws and
        their order; it records no tape, so training keeps :meth:`encode`.
        """
        adjacency = self.adaptive_adjacency()
        embeddings = self.adaptive_adjacency.embeddings
        rate = self.encoder_dropout.rate
        streams = inference_streams() if rate > 0.0 else None
        kernels = [_CellKernel(cell, adjacency, embeddings, x.shape[0]) for cell in self.cells]
        signal = x.data[..., None]
        for step in range(self.history):
            layer_input = signal[:, step]
            for kernel in kernels:
                layer_input = kernel.step(layer_input, rate, streams)
        return Tensor(layer_input)

    def forward(self, x: Union[Tensor, np.ndarray]) -> Union[Tensor, Dict[str, Tensor]]:
        """Forecast all heads.

        Returns a Tensor ``(batch, horizon, num_nodes)`` when a single head is
        configured, otherwise a dict mapping head names to such tensors.
        """
        x = self._validate_input(x)
        hidden = self._encode_inference(x) if in_inference() else self.encode(x)
        decoded = self.decoder_dropout(hidden)
        outputs: Dict[str, Tensor] = {}
        for name, head in zip(self.head_names, self.heads):
            # (B, N, horizon) -> (B, horizon, N)
            outputs[name] = head(decoded).transpose(0, 2, 1)
        if len(self.head_names) == 1:
            return outputs[self.head_names[0]]
        return outputs
