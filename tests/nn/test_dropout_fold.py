"""The thread-local inference context: the mechanism behind MC inference.

Inside ``inference(streams)`` every dropout layer draws its masks from the
context's streams (one generator, or one per folded MC sample) and never
touches its own generator; outside it the layers act on their own flags.
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.nn.module import in_inference, inference_streams
from repro.tensor import Tensor


def _streams(seed, n):
    rng = np.random.default_rng(seed)
    return [np.random.default_rng(int(s)) for s in rng.integers(0, 2**62, size=n)]


class TestFoldedMasks:
    def test_folded_equals_per_sample_sequential(self):
        """The folded mask slab for sample s == the mask a sequential pass draws."""
        num_samples, sub_batch = 3, 4
        x = Tensor(np.ones((num_samples * sub_batch, 5)))

        folded_layer = nn.Dropout(0.5)
        with nn.inference(_streams(7, num_samples)):
            folded = folded_layer(x).numpy()

        for s, stream in enumerate(_streams(7, num_samples)):
            seq_layer = nn.Dropout(0.5, rng=stream)
            seq = seq_layer(Tensor(np.ones((sub_batch, 5)))).numpy()
            np.testing.assert_array_equal(folded[s * sub_batch : (s + 1) * sub_batch], seq)

    def test_fold_requires_divisible_batch(self):
        layer = nn.Dropout(0.5)
        with nn.inference(_streams(0, 3)):
            with pytest.raises(ValueError):
                layer(Tensor(np.ones((7, 2))))

    def test_leaving_the_context_restores_normal_mode(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(1))
        with nn.inference(_streams(0, 2)):
            pass
        out = layer(Tensor(np.ones((5, 3)))).numpy()  # any batch size again
        expected = nn.Dropout(0.5, rng=np.random.default_rng(1))(Tensor(np.ones((5, 3))))
        np.testing.assert_array_equal(out, expected.numpy())

    def test_zero_rate_is_identity_even_when_folded(self):
        layer = nn.Dropout(0.0)
        x = Tensor(np.ones((4, 3)))
        with nn.inference(_streams(0, 2)):
            assert layer(x) is x

    def test_no_streams_is_identity_even_in_training_mode(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        state = repr(layer._rng.bit_generator.state)
        x = Tensor(np.ones((4, 3)))
        assert layer.training
        with nn.inference():
            assert layer(x) is x
        assert repr(layer._rng.bit_generator.state) == state


class TestModuleTree:
    def _model(self):
        class TwoDropouts(nn.Module):
            def __init__(self):
                super().__init__()
                self.a = nn.Dropout(0.3, rng=np.random.default_rng(11))
                self.b = nn.Dropout(0.3, rng=np.random.default_rng(12))

            def forward(self, x):
                return self.a(x), self.b(x)

        return TwoDropouts()

    def test_every_layer_draws_from_the_context_streams(self):
        model = self._model()
        model.eval()
        own = [repr(d._rng.bit_generator.state) for d in (model.a, model.b)]
        x = Tensor(np.ones((2, 50)))
        with nn.inference(_streams(0, 2)):
            a, b = model(x)
        expected = _streams(0, 2)
        for out in (a, b):
            for s, stream in enumerate(expected):
                mask = nn.Dropout(0.3, rng=stream)(Tensor(np.ones((1, 50))))
                np.testing.assert_array_equal(out.numpy()[s : s + 1], mask.numpy())
        assert [repr(d._rng.bit_generator.state) for d in (model.a, model.b)] == own

    def test_context_cleans_up(self):
        model = self._model()
        with nn.inference(_streams(0, 2)):
            assert in_inference()
        assert not in_inference() and inference_streams() is None
        model.eval()
        x = Tensor(np.ones((3, 4)))
        assert all(out is x for out in model(x))

    def test_context_cleans_up_on_error(self):
        with pytest.raises(RuntimeError):
            with nn.inference(_streams(0, 2)):
                raise RuntimeError("boom")
        assert not in_inference() and inference_streams() is None

    def test_nested_context_restores_the_outer_one(self):
        outer, inner = np.random.default_rng(1), np.random.default_rng(2)
        with nn.inference(outer):
            with nn.inference(inner):
                assert inference_streams() is inner
            assert inference_streams() is outer
            with nn.inference():
                assert in_inference() and inference_streams() is None
            assert inference_streams() is outer

    def test_context_is_per_thread(self):
        seen = []
        entered, release = threading.Event(), threading.Event()

        def other_thread():
            assert entered.wait(timeout=10.0)
            seen.append((in_inference(), inference_streams()))
            release.set()

        thread = threading.Thread(target=other_thread)
        thread.start()
        with nn.inference(np.random.default_rng(0)):
            entered.set()
            assert release.wait(timeout=10.0)
        thread.join(timeout=10.0)
        assert seen == [(False, None)]


class TestBatchNormInference:
    def test_uses_running_stats_and_writes_nothing(self):
        layer = nn.BatchNorm1d(3)
        layer.running_mean = np.array([1.0, 2.0, 3.0])
        layer.running_var = np.array([4.0, 4.0, 4.0])
        x = Tensor(np.random.default_rng(0).normal(size=(8, 3)))
        assert layer.training
        with nn.inference():
            out = layer(x).numpy()
        np.testing.assert_array_equal(layer.running_mean, [1.0, 2.0, 3.0])
        assert layer.num_batches_tracked == 0
        layer.eval()
        np.testing.assert_array_equal(out, layer(x).numpy())
