"""AGCRN's inference kernel against the Tensor-op encoder it replaces there.

Inside ``repro.nn.inference`` an AGCRN forward runs its encoder as an
in-place NumPy recurrence (``AGCRN._encode_inference``); training keeps the
Tensor-op :meth:`AGCRN.encode`, which records the tape.  The two must agree
bit for bit, for every configuration, and must draw the same dropout masks
from the same streams in the same order.  Bias pools are nonzero here, so
the node-adaptive bias is exercised (training starts them at zero).
"""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.models.agcrn import AGCRN
from repro.tensor import Tensor

NUM_NODES, HISTORY, HORIZON = 5, 4, 3
#: Rows of a forward, and how many per-sample streams each splits into.
ROWS = {1: 1, 2: 2, 3: 3, 48: 16}


def _model(cheb_k, num_layers, rate, heads=("mean", "log_var"), seed=0):
    rng = np.random.default_rng(seed)
    model = AGCRN(
        NUM_NODES, history=HISTORY, horizon=HORIZON, hidden_dim=4, embed_dim=2,
        cheb_k=cheb_k, num_layers=num_layers, encoder_dropout=rate,
        decoder_dropout=0.2, heads=heads, rng=rng,
    )
    for cell in model.cells:
        for conv in (cell.gate_conv, cell.candidate_conv):
            conv.bias_pool.data[...] = rng.normal(size=conv.bias_pool.shape)
    return model


def _streams(kind, rows):
    """Two identical copies of a stream form: ``None``, one generator or one per sample."""
    if kind == "none":
        return None, None
    if kind == "one":
        return np.random.default_rng(7), np.random.default_rng(7)
    seeds = range(ROWS[rows])
    return [np.random.default_rng(s) for s in seeds], [np.random.default_rng(s) for s in seeds]


def _next_draws(streams):
    if streams is None:
        return []
    generators = [streams] if isinstance(streams, np.random.Generator) else streams
    return [generator.random() for generator in generators]


def _inputs(rows, seed=1):
    return Tensor(np.random.default_rng(seed).normal(size=(rows, HISTORY, NUM_NODES)))


@pytest.mark.parametrize(
    "rows, cheb_k, num_layers, rate, kind",
    list(itertools.product(ROWS, (1, 2, 3), (1, 2), (0.0, 0.1), ("none", "one", "per_sample"))),
)
def test_kernel_encoder_is_bit_identical(rows, cheb_k, num_layers, rate, kind):
    model = _model(cheb_k, num_layers, rate)
    x = _inputs(rows)
    reference_streams, kernel_streams = _streams(kind, rows)
    with nn.inference(reference_streams):
        reference = model.encode(x).numpy()
    with nn.inference(kernel_streams):
        kernel = model._encode_inference(x).numpy()
    np.testing.assert_array_equal(kernel, reference)
    # The same masks in the same order leave every stream in the same state.
    assert _next_draws(kernel_streams) == _next_draws(reference_streams)


@pytest.mark.parametrize("kind", ["one", "per_sample"])
def test_kernel_draws_nothing_at_rate_zero(kind):
    model = _model(2, 2, 0.0)
    used, fresh = _streams(kind, 48)
    with nn.inference(used):
        model._encode_inference(_inputs(48))
    assert _next_draws(used) == _next_draws(fresh)


@pytest.mark.parametrize(
    "heads", [("mean",), ("mean", "log_var"), ("lower", "mean", "upper")]
)
@pytest.mark.parametrize("kind", ["none", "one", "per_sample"])
@pytest.mark.parametrize("rows, cheb_k, num_layers", [(1, 2, 1), (3, 3, 2), (48, 2, 1)])
def test_forward_is_bit_identical(rows, cheb_k, num_layers, kind, heads, monkeypatch):
    model = _model(cheb_k, num_layers, 0.1, heads=heads)
    x = _inputs(rows)
    kernel_streams, reference_streams = _streams(kind, rows)
    with nn.inference(kernel_streams):
        kernel = model(x)
    # The same forward with the Tensor-op encoder in the kernel's place.
    monkeypatch.setattr(AGCRN, "_encode_inference", AGCRN.encode)
    with nn.inference(reference_streams):
        reference = model(x)
    if len(heads) == 1:
        kernel, reference = {"mean": kernel}, {"mean": reference}
    assert sorted(kernel) == sorted(reference) == sorted(heads)
    for name in heads:
        np.testing.assert_array_equal(kernel[name].numpy(), reference[name].numpy(), err_msg=name)
    assert _next_draws(kernel_streams) == _next_draws(reference_streams)
