"""Finite-difference gradient checks and hypothesis property tests for autodiff."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.core.losses import heteroscedastic_gaussian_loss
from repro.nn.module import Module
from repro.tensor import Tensor, gradcheck
from repro.tensor import functional as F


def _rand(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestGradcheckOps:
    def test_add_mul(self):
        a, b = _rand((3, 4), 0), _rand((3, 4), 1)
        assert gradcheck(lambda x, y: (x * y + x).sum(), [a, b])

    def test_div(self):
        a = _rand((3,), 0)
        b = Tensor(np.abs(np.random.default_rng(1).normal(size=3)) + 1.0, requires_grad=True)
        assert gradcheck(lambda x, y: (x / y).sum(), [a, b])

    def test_matmul(self):
        a, b = _rand((3, 4), 0), _rand((4, 2), 1)
        assert gradcheck(lambda x, y: x.matmul(y).sum(), [a, b])

    def test_batched_matmul(self):
        a, b = _rand((2, 3, 4), 0), _rand((2, 4, 2), 1)
        assert gradcheck(lambda x, y: x.matmul(y).sum(), [a, b])

    def test_exp_log(self):
        a = Tensor(np.abs(np.random.default_rng(0).normal(size=(3,))) + 0.5, requires_grad=True)
        assert gradcheck(lambda x: (x.log() + x.exp()).sum(), [a])

    def test_tanh_sigmoid(self):
        a = _rand((5,), 0)
        assert gradcheck(lambda x: (x.tanh() * x.sigmoid()).sum(), [a])

    def test_mean_var(self):
        a = _rand((4, 3), 2)
        assert gradcheck(lambda x: (x.mean(axis=0) + x.var(axis=0)).sum(), [a])

    def test_softmax(self):
        a = _rand((3, 5), 1)
        weights = Tensor(np.random.default_rng(9).normal(size=(3, 5)))
        assert gradcheck(lambda x: (F.softmax(x, axis=-1) * weights).sum(), [a])

    def test_transpose_reshape_chain(self):
        a = _rand((2, 3, 4), 5)
        assert gradcheck(lambda x: x.transpose(2, 0, 1).reshape(4, 6).sum(axis=0).sum(), [a])

    def test_cat(self):
        a, b = _rand((2, 3), 0), _rand((2, 2), 1)
        assert gradcheck(lambda x, y: F.cat([x, y], axis=1).sum(), [a, b])

    def test_stack(self):
        a, b = _rand((3,), 0), _rand((3,), 1)
        assert gradcheck(lambda x, y: (F.stack([x, y], axis=0) ** 2).sum(), [a, b])

    def test_getitem(self):
        a = _rand((5, 4), 7)
        assert gradcheck(lambda x: x[1:4, ::2].sum(), [a])

    def test_heteroscedastic_gaussian_loss(self):
        mean = _rand((6,), 0)
        log_var = _rand((6,), 1)
        target = Tensor(np.random.default_rng(2).normal(size=6))
        assert gradcheck(
            lambda m, lv: heteroscedastic_gaussian_loss(m, lv, target), [mean, log_var]
        )

    def test_pinball(self):
        pred = _rand((6,), 0)
        target = Tensor(np.random.default_rng(3).normal(size=6))
        assert gradcheck(lambda p: F.pinball_loss(p, target, 0.975), [pred], atol=1e-3)

    def test_gradcheck_requires_scalar(self):
        a = _rand((3,), 0)
        with pytest.raises(ValueError):
            gradcheck(lambda x: x * 2.0, [a])

    def test_gradcheck_requires_grad_inputs(self):
        a = Tensor([1.0])
        with pytest.raises(ValueError):
            gradcheck(lambda x: x.sum(), [a])


class _AdaptiveBlock(Module):
    """AdaptiveAdjacency + AVWGCN wired the way AGCRN uses them."""

    def __init__(self, num_nodes, in_features, out_features, embed_dim, cheb_k, rng):
        super().__init__()
        self.adjacency = nn.AdaptiveAdjacency(num_nodes, embed_dim, rng=rng)
        self.conv = nn.AVWGCN(in_features, out_features, embed_dim, cheb_k=cheb_k, rng=rng)

    def forward(self, x):
        return self.conv(x, self.adjacency(), self.adjacency.embeddings)


def _rand_support(rng, n):
    """A well-conditioned normalized (n, n) propagation matrix."""
    raw = np.abs(rng.normal(size=(n, n))) + 0.1
    return raw / raw.sum(axis=1, keepdims=True)


def _build_linear(rng, b, t, n, c, h):
    return nn.Linear(c, h, rng=rng), (b, c)


def _build_causal_conv(rng, b, t, n, c, h):
    return nn.CausalConv1d(c, h, kernel_size=2, rng=rng), (b, t, n, c)


def _build_valid_conv(rng, b, t, n, c, h):
    return nn.CausalConv1d(c, h, kernel_size=2, causal=False, rng=rng), (b, t + 1, n, c)


def _build_gated_conv(rng, b, t, n, c, h):
    return nn.GatedTemporalConv(c, h, kernel_size=2, rng=rng), (b, t, n, c)


def _build_gru(rng, b, t, n, c, h):
    gru = nn.GRU(c, h, rng=rng)
    return (lambda x: gru(x)[0]), gru, (b, t, c)


def _build_gru_cell(rng, b, t, n, c, h):
    cell = nn.GRUCell(c, h, rng=rng)
    hidden = Tensor(rng.normal(size=(b, h)))
    return (lambda x: cell(x, hidden)), cell, (b, c)


def _build_gcn(rng, b, t, n, c, h):
    return nn.GCNLayer(c, h, _rand_support(rng, n), activation="tanh", rng=rng), (b, n, c)


def _build_cheb(rng, b, t, n, c, h):
    supports = [np.eye(n), _rand_support(rng, n)]
    return nn.ChebConv(c, h, supports, rng=rng), (b, n, c)


def _build_diffusion(rng, b, t, n, c, h):
    supports = [_rand_support(rng, n), _rand_support(rng, n).T]
    return nn.DiffusionConv(c, h, supports, max_step=2, rng=rng), (b, n, c)


def _build_avwgcn(rng, b, t, n, c, h):
    return _AdaptiveBlock(n, c, h, embed_dim=2, cheb_k=2, rng=rng), (b, n, c)


def _build_spatial_attention(rng, b, t, n, c, h):
    return nn.SpatialAttention(t, c, rng=rng), (b, t, n, c)


def _build_temporal_attention(rng, b, t, n, c, h):
    return nn.TemporalAttention(n, c, rng=rng), (b, t, n, c)


def _build_batchnorm(rng, b, t, n, c, h):
    layer = nn.BatchNorm1d(c)
    layer.running_mean = rng.normal(size=c)
    layer.running_var = np.abs(rng.normal(size=c)) + 0.5
    # Eval mode: running statistics are constants, so the full input gradient
    # is well-defined (training-mode batch stats are intentionally detached).
    layer.eval()
    return layer, (b, n, c)


def _build_layernorm(rng, b, t, n, c, h):
    return nn.LayerNorm(c), (b, n, c)


LAYER_BUILDERS = {
    "linear": _build_linear,
    "causal_conv": _build_causal_conv,
    "valid_conv": _build_valid_conv,
    "gated_conv": _build_gated_conv,
    "gru": _build_gru,
    "gru_cell": _build_gru_cell,
    "gcn": _build_gcn,
    "cheb_conv": _build_cheb,
    "diffusion_conv": _build_diffusion,
    "avwgcn": _build_avwgcn,
    "spatial_attention": _build_spatial_attention,
    "temporal_attention": _build_temporal_attention,
    "batchnorm": _build_batchnorm,
    "layernorm": _build_layernorm,
}


class TestLayerGradchecks:
    """Finite-difference agreement for every nn layer, randomized shapes/seeds.

    Each case draws small random dimensions from its seed, builds the layer,
    and checks the analytic gradient of ``layer(x).sum()`` against central
    finite differences with respect to the input *and every parameter*.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(LAYER_BUILDERS))
    def test_layer_matches_finite_differences(self, name, seed):
        # crc32 (not hash()) so shapes are stable across processes/PYTHONHASHSEED.
        rng = np.random.default_rng(1000 * seed + zlib.crc32(name.encode()) % 1000)
        b, t, n = rng.integers(2, 4), int(rng.integers(2, 4)), int(rng.integers(2, 4))
        c, h = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        built = LAYER_BUILDERS[name](rng, int(b), t, n, c, h)
        if len(built) == 3:
            forward, layer, in_shape = built
        else:
            layer, in_shape = built
            forward = layer
        x = Tensor(rng.normal(size=in_shape), requires_grad=True)
        params = layer.parameters()
        assert params, f"{name} exposes no parameters"
        assert gradcheck(lambda *ts: forward(ts[0]).sum(), [x] + params)


@st.composite
def small_arrays(draw, max_side=4):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=max_side))
    return draw(
        hnp.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
        )
    )


class TestAutodiffProperties:
    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_ones(self, data):
        x = Tensor(data, requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, np.ones_like(data))

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_linear_gradient_is_coefficient(self, data):
        x = Tensor(data, requires_grad=True)
        (3.5 * x).sum().backward()
        assert np.allclose(x.grad, 3.5 * np.ones_like(data))

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_square_gradient(self, data):
        x = Tensor(data, requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, 2.0 * data, atol=1e-8)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_forward_matches_numpy(self, data):
        x = Tensor(data)
        assert np.allclose((x.tanh() + x.sigmoid()).numpy(), np.tanh(data) + 1.0 / (1.0 + np.exp(-data)))

    @given(small_arrays(), st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_softmax_normalizes_any_axis(self, data, axis_seed):
        axis = axis_seed % data.ndim
        out = F.softmax(Tensor(data), axis=axis).numpy()
        assert np.allclose(out.sum(axis=axis), 1.0)

    @given(small_arrays())
    @settings(max_examples=20, deadline=None)
    def test_reshape_preserves_sum(self, data):
        x = Tensor(data)
        assert np.allclose(x.reshape(-1).sum().item(), data.sum())
