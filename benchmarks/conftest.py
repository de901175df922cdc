"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Because the
interesting output is the regenerated rows/series (not only the timing), each
benchmark calls :func:`save_result` which writes the formatted text to
``benchmarks/results/<name>.txt`` and echoes it to stdout (visible with
``pytest -s`` and referenced from EXPERIMENTS.md).  Smoke runs write to the
git-ignored ``benchmarks/results/unit/`` instead, so they never rewrite a
committed result.

Select the run size with the ``REPRO_SCALE`` environment variable
(``unit`` for a smoke run, ``bench`` — the default — for the CPU-sized
reproduction, ``paper`` for the full-size recipe).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def results_dir(scale) -> Path:
    directory = RESULTS_DIR / "unit" if scale.name == "unit" else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory


@pytest.fixture(scope="session")
def scale():
    from repro.evaluation import scale_from_env

    return scale_from_env(default="bench")


@pytest.fixture
def save_result(results_dir):
    """Persist a benchmark's regenerated table/series and echo it."""

    def _save(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save
