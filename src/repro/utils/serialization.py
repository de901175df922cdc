"""Model checkpointing: directory checkpoints of JSON metadata plus arrays.

:func:`save_checkpoint` / :func:`load_checkpoint` write and read a directory
pairing a JSON metadata document with an ``.npz`` archive of named arrays,
the on-disk format of the full-state :class:`~repro.api.Forecaster`
checkpoints (spec + weights + scaler statistics + calibration state).

:func:`pack_state_arrays` / :func:`unpack_state_arrays` namespace several
state dicts (model weights, ensemble members, snapshots) into one flat
archive using dotted prefixes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np


# ---------------------------------------------------------------------- #
# Namespaced state archives
# ---------------------------------------------------------------------- #
def pack_state_arrays(prefix: str, state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Prefix every key of a state dict (e.g. ``model.`` or ``members.0.``)."""
    return {f"{prefix}{name}": np.asarray(value) for name, value in state.items()}


def unpack_state_arrays(prefix: str, arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Extract and strip one prefix's entries from a flat array archive."""
    offset = len(prefix)
    return {name[offset:]: value for name, value in arrays.items() if name.startswith(prefix)}


# ---------------------------------------------------------------------- #
# Directory checkpoints (JSON metadata + npz arrays)
# ---------------------------------------------------------------------- #
CHECKPOINT_META_FILE = "checkpoint.json"
CHECKPOINT_ARRAYS_FILE = "arrays.npz"


def save_checkpoint(
    directory: Union[str, Path],
    meta: Dict[str, Any],
    arrays: Dict[str, np.ndarray],
) -> Path:
    """Write a directory checkpoint: JSON-able ``meta`` + named ``arrays``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / CHECKPOINT_META_FILE, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    np.savez_compressed(directory / CHECKPOINT_ARRAYS_FILE, **arrays)
    return directory


def load_checkpoint(
    directory: Union[str, Path],
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Read a directory checkpoint written by :func:`save_checkpoint`."""
    directory = Path(directory)
    meta_path = directory / CHECKPOINT_META_FILE
    arrays_path = directory / CHECKPOINT_ARRAYS_FILE
    if not meta_path.exists() or not arrays_path.exists():
        raise FileNotFoundError(
            f"{directory} is not a checkpoint directory (expected "
            f"{CHECKPOINT_META_FILE} and {CHECKPOINT_ARRAYS_FILE})"
        )
    with open(meta_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    with np.load(arrays_path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    return meta, arrays
