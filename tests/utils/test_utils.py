"""Tests for the utility helpers (seeding, checkpointing, table formatting)."""

import numpy as np
import pytest

from repro import nn
from repro.utils import (
    format_table,
    load_checkpoint,
    pack_state_arrays,
    save_checkpoint,
    seed_everything,
    unpack_state_arrays,
)


class TestSeed:
    def test_seed_everything_reproducible(self):
        rng_a = seed_everything(123)
        rng_b = seed_everything(123)
        assert rng_a.standard_normal(5) == pytest.approx(rng_b.standard_normal(5))
        assert np.random.rand() == pytest.approx(
            (seed_everything(123), np.random.rand())[1]
        )


class TestStateArrays:
    def test_pack_unpack_round_trip(self):
        state = {"weight": np.ones((2, 2)), "bias": np.zeros(2)}
        packed = pack_state_arrays("model.", state)
        assert set(packed) == {"model.weight", "model.bias"}
        unpacked = unpack_state_arrays("model.", packed)
        assert all(np.array_equal(state[k], unpacked[k]) for k in state)

    def test_numbered_prefixes_do_not_collide(self):
        arrays = {}
        arrays.update(pack_state_arrays("members.1.", {"w": np.full(2, 1.0)}))
        arrays.update(pack_state_arrays("members.10.", {"w": np.full(2, 10.0)}))
        assert np.all(unpack_state_arrays("members.1.", arrays)["w"] == 1.0)
        assert np.all(unpack_state_arrays("members.10.", arrays)["w"] == 10.0)


class TestDirectoryCheckpoints:
    def test_round_trip(self, tmp_path):
        meta = {"format_version": 1, "spec": {"method": "MVE"}}
        arrays = {"model.weight": np.arange(6.0).reshape(2, 3)}
        save_checkpoint(tmp_path / "ckpt", meta, arrays)
        loaded_meta, loaded_arrays = load_checkpoint(tmp_path / "ckpt")
        assert loaded_meta == meta
        assert np.array_equal(loaded_arrays["model.weight"], arrays["model.weight"])

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a checkpoint directory"):
            load_checkpoint(tmp_path / "absent")


class _TwoLayer(nn.Module):
    def __init__(self, out: int, seed: int) -> None:
        super().__init__()
        self.fc1 = nn.Linear(4, 3, rng=np.random.default_rng(seed))
        self.fc2 = nn.Linear(3, out, rng=np.random.default_rng(seed + 1))


def _save_weights(model, directory):
    """Model weights the way the pipeline checkpoints them."""
    return save_checkpoint(directory, {}, pack_state_arrays("model.", model.state_dict()))


def _load_weights(model, directory):
    _, arrays = load_checkpoint(directory)
    model.load_state_dict(unpack_state_arrays("model.", arrays))


class TestModelWeights:
    """Model weights through a directory checkpoint and ``load_state_dict``."""

    def test_roundtrip(self, tmp_path):
        model = nn.Linear(4, 3, rng=np.random.default_rng(0))
        other = nn.Linear(4, 3, rng=np.random.default_rng(1))
        _load_weights(other, _save_weights(model, tmp_path / "checkpoint"))
        assert np.array_equal(model.weight.numpy(), other.weight.numpy())
        assert np.array_equal(model.bias.numpy(), other.bias.numpy())

    def test_creates_parent_directories(self, tmp_path):
        path = _save_weights(nn.Linear(2, 2), tmp_path / "deep" / "nested" / "model")
        assert path.is_dir()
        _load_weights(nn.Linear(2, 2), path)

    def test_mismatched_architecture_lists_parameter_names(self, tmp_path):
        """A wrong-architecture checkpoint names the offending parameters."""
        path = _save_weights(nn.Linear(4, 3), tmp_path / "linear")
        gru = nn.GRU(4, 3)
        with pytest.raises(KeyError) as excinfo:
            _load_weights(gru, path)
        message = str(excinfo.value)
        assert "missing=" in message and "unexpected=['bias', 'weight']" in message
        assert all(name in message for name, _ in gru.named_parameters())

    def test_shape_mismatch_rejected_before_any_write(self, tmp_path):
        """Only the last layer differs: rejected up front, earlier layers untouched."""
        path = _save_weights(_TwoLayer(out=2, seed=0), tmp_path / "narrow")
        wide = _TwoLayer(out=5, seed=10)
        before = wide.state_dict()
        with pytest.raises(ValueError, match="shape mismatch for 'fc2.weight'"):
            _load_weights(wide, path)
        after = wide.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_mismatch_leaves_model_untouched(self, tmp_path):
        path = _save_weights(nn.Linear(4, 3), tmp_path / "linear")
        target = nn.GRU(4, 3)
        before = target.state_dict()
        with pytest.raises(KeyError):
            _load_weights(target, path)
        after = target.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table(["a", "b"], [[1, 2.3456], ["x", 7]], precision=2, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.35" in text
        assert "x" in text

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text

    def test_column_alignment(self):
        text = format_table(["name", "v"], [["long-method-name", 1.0], ["s", 22.0]])
        lines = text.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3])
