"""Small shared utilities: seeding, checkpointing, table formatting."""

from repro.utils.jsonsafe import json_ready
from repro.utils.seed import seed_everything
from repro.utils.serialization import (
    load_checkpoint,
    pack_state_arrays,
    save_checkpoint,
    unpack_state_arrays,
)
from repro.utils.tables import format_table

__all__ = [
    "json_ready",
    "seed_everything",
    "save_checkpoint",
    "load_checkpoint",
    "pack_state_arrays",
    "unpack_state_arrays",
    "format_table",
]
