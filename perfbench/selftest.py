"""The benchmark's own tests.

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python -m pytest -q perfbench/selftest.py

They take about a minute: every workload runs once per mode at smoke size.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
from workloads import cheap_predict  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_emits_every_declared_metric() -> None:
    for workload in SPEC["workloads"]:
        for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            done = _run("--workload", workload["name"], "--seed", "3", "--seconds", "2",
                        "--trace", trace, "--smoke")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload["name"], trace, done.stdout[-3000:])
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert {name: m["unit"] for name, m in result["metrics"].items()} == {
                entry["name"]: entry["unit"] for entry in declared
            }
            for name, metric in result["metrics"].items():
                assert np.isfinite(metric["value"]), (workload["name"], name)


def test_tick_phases_and_residual_add_up_with_a_sleeping_model() -> None:
    """Phases + residual equal the tick measured from outside, within 2%."""
    from repro.fleet import StreamFleet
    from repro.serving import InferenceServer

    sleep_s, streams, history, horizon = 0.02, 8, 4, 2
    model = cheap_predict(horizon)

    def sleepy(windows: np.ndarray):
        time.sleep(sleep_s)
        return model(windows)

    server = InferenceServer(sleepy, max_batch_size=streams, max_wait_ms=2.0, cache_size=0)
    rng = np.random.default_rng(0)
    tracer = tracing.Tracer()
    walls = []
    with server:
        fleet = StreamFleet(server, history, horizon)
        for index in range(streams):
            fleet.add_stream(f"s{index}")
        for _ in range(history + horizon):
            fleet.tick({name: rng.uniform(0, 100, 3) for name in fleet.streams})
        tracer.install()
        try:
            for _ in range(10):
                rows = {name: rng.uniform(0, 100, 3) for name in fleet.streams}
                start = time.perf_counter()
                fleet.tick(rows)
                walls.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
    parts = tracing.tick_decomposition(tracer.spans)
    assert parts["ticks"] == 10
    assert parts["overlapping_spans"] == 0 and parts["negative_residuals"] == 0
    phases = sum(parts[metric] for _, metric in tracing.TICK_PHASES) + parts["fleet.other_ms"]
    wall_ms = float(np.mean(walls)) * 1e3
    assert abs(phases - wall_ms) <= 0.02 * wall_ms
    assert abs(parts["fleet.tick_ms"] - wall_ms) <= 0.02 * wall_ms
    # The tick blocks on at least one sleeping forward.
    assert parts["fleet.wait_ms"] >= 0.8 * sleep_s * 1e3


def test_tracer_restores_every_original() -> None:
    originals = [tracing._resolve(module, path) for module, path, _ in tracing.LAYER_FUNCTIONS]
    before = [owner.__dict__[attr] for owner, attr in originals]
    tracer = tracing.Tracer()
    tracer.install()
    assert [owner.__dict__[attr] for owner, attr in originals] != before
    tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in originals] == before


def test_fails_without_the_program_sources() -> None:
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("--workload", "http_predict", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            started = time.perf_counter()
            test()
            print(f"{name}: ok ({time.perf_counter() - started:.1f} s)")
