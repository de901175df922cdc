"""``AVWGCN``'s per-node GEMM against the stacked per-node product it replaced.

The layer contracts the node-adaptive weights as one batched product over
nodes, ``(N, B, K*C_in) @ (N, K*C_in, C_out)``, and applies the Chebyshev
``T_0 = I`` as the identity.  The reference below is the earlier
formulation: an explicit ``eye @ x`` and ``B * N`` one-row products.  The
two orders of summation may differ in the last bits, so outputs and every
gradient are compared at a relative tolerance of 1e-12, measured against
each array's largest magnitude: where a sum cancels to nearly zero, the
element's own relative error is unbounded (it reaches ~2e-11 at 1024 rows).
"""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor
from repro.tensor import functional as F

NUM_NODES, IN_FEATURES, OUT_FEATURES, EMBED_DIM = 4, 9, 16, 3


def _reference_forward(layer, x, adjacency, embeddings):
    num_nodes = x.shape[1]
    supports = [Tensor(np.eye(num_nodes)), adjacency]
    for _ in range(2, layer.cheb_k):
        supports.append(2.0 * adjacency.matmul(supports[-1]) - supports[-2])
    propagated = F.cat([s.matmul(x) for s in supports[: layer.cheb_k]], axis=-1)
    weights = embeddings.matmul(layer.weight_pool).reshape(
        num_nodes, layer.cheb_k * layer.in_features, layer.out_features
    )
    bias = embeddings.matmul(layer.bias_pool)
    return propagated.unsqueeze(2).matmul(weights).squeeze(2) + bias


def _output_and_grads(forward, cheb_k, rows):
    """Run ``forward`` on freshly seeded parameters; return output and grads."""
    rng = np.random.default_rng(cheb_k * 1000 + rows)
    adjacency_module = nn.AdaptiveAdjacency(NUM_NODES, EMBED_DIM, rng=rng)
    layer = nn.AVWGCN(IN_FEATURES, OUT_FEATURES, EMBED_DIM, cheb_k=cheb_k, rng=rng)
    layer.bias_pool.data[...] = rng.normal(size=layer.bias_pool.shape)
    x = Tensor(rng.normal(size=(rows, NUM_NODES, IN_FEATURES)), requires_grad=True)
    upstream = rng.normal(size=(rows, NUM_NODES, OUT_FEATURES))
    embeddings = adjacency_module.embeddings
    out = forward(layer, x, adjacency_module(), embeddings)
    out.backward(upstream)
    grads = {
        "x": x.grad,
        "embeddings": embeddings.grad,
        "weight_pool": layer.weight_pool.grad,
        "bias_pool": layer.bias_pool.grad,
    }
    return out.numpy(), grads


def _assert_close(actual, reference, name):
    scale = np.abs(reference).max()
    np.testing.assert_allclose(
        actual, reference, rtol=1e-12, atol=1e-12 * scale, err_msg=name
    )


@pytest.mark.parametrize("rows", [1, 2, 1024])
@pytest.mark.parametrize("cheb_k", [1, 2, 3])
def test_gemm_matches_stacked_per_node_product(cheb_k, rows):
    out, grads = _output_and_grads(
        lambda layer, *args: layer(*args), cheb_k, rows
    )
    ref_out, ref_grads = _output_and_grads(_reference_forward, cheb_k, rows)
    assert out.shape == (rows, NUM_NODES, OUT_FEATURES)
    _assert_close(out, ref_out, "output")
    for name, reference in ref_grads.items():
        assert grads[name] is not None, name
        _assert_close(grads[name], reference, name)
