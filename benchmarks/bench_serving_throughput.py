"""Serving throughput — batched (sample-folded) vs. looped MC inference.

Times ``N_MC = 32`` Monte-Carlo dropout forecasts through the vectorized
:class:`~repro.core.inference.BatchedPredictor` fold and through the
sequential per-sample loop, across request micro-batch sizes, plus the
end-to-end :class:`~repro.serving.InferenceServer` throughput with and
without cache re-use.

Expected shape: the folded pass amortizes the fixed cost of each encoder
step (its NumPy and BLAS calls' set-up) that the loop pays ``N_MC`` times,
so the speedup is largest for the small micro-batches a serving queue
produces and decays as raw array math starts to dominate.  The acceptance gate is >= 3x at the representative micro-batch
size of 4 windows.
"""

import time

import numpy as np

from repro.core.inference import BatchedPredictor
from repro.data.scalers import StandardScaler
from repro.models.agcrn import AGCRN
from repro.serving import InferenceServer
from repro.evaluation import format_rows

NODES, HISTORY, HORIZON = 8, 8, 4
N_MC = 32
GATE_BATCH = 4  # micro-batch size the >= 3x acceptance criterion applies to


def _build_predictor():
    rng = np.random.default_rng(0)
    model = AGCRN(
        num_nodes=NODES, history=HISTORY, horizon=HORIZON, hidden_dim=8, embed_dim=3,
        encoder_dropout=0.1, decoder_dropout=0.2, heads=("mean", "log_var"), rng=rng,
    )
    scaler = StandardScaler().fit(np.array([0.0, 100.0]))
    return scaler, BatchedPredictor(model, scaler)


def _time_mc(predictor, inputs, vectorized, repeats=5):
    def once():
        start = time.perf_counter()
        predictor.monte_carlo(
            inputs, num_samples=N_MC, rng=np.random.default_rng(2), vectorized=vectorized
        )
        return time.perf_counter() - start

    once()  # warm-up
    return min(once() for _ in range(repeats))


def run_serving_throughput():
    scaler, predictor = _build_predictor()
    rng = np.random.default_rng(1)
    rows = []
    for batch in (1, 2, 4, 8, 16):
        inputs = rng.uniform(-1.0, 1.0, size=(batch, HISTORY, NODES))
        looped = _time_mc(predictor, inputs, vectorized=False)
        batched = _time_mc(predictor, inputs, vectorized=True)
        rows.append(
            {
                "micro-batch": batch,
                "looped (ms)": round(looped * 1000.0, 2),
                "batched (ms)": round(batched * 1000.0, 2),
                "speedup": round(looped / batched, 2),
                "batched win/s": round(batch / batched, 1),
            }
        )

    # End-to-end server throughput: cold (all model) vs warm (all cache).
    def predict_fn(windows):
        return predictor.monte_carlo(
            scaler.transform(windows), num_samples=N_MC, rng=np.random.default_rng(3)
        )

    windows = rng.uniform(0.0, 100.0, size=(64, HISTORY, NODES))
    server_stats = {}
    with InferenceServer(predict_fn, model_version="bench", max_batch_size=GATE_BATCH) as server:
        start = time.perf_counter()
        server.predict_many(windows)
        server_stats["cold win/s"] = round(64.0 / (time.perf_counter() - start), 1)
        start = time.perf_counter()
        server.predict_many(windows)
        server_stats["warm win/s"] = round(64.0 / (time.perf_counter() - start), 1)
        server_stats["cache hits"] = server.stats["cache_hits"]
    return rows, server_stats


def test_serving_throughput(benchmark, save_result):
    rows, server_stats = benchmark.pedantic(run_serving_throughput, rounds=1, iterations=1)
    lines = [
        format_rows(rows, title=f"Serving: looped vs batched MC inference (N_MC={N_MC})"),
        "",
        "InferenceServer end-to-end (64 windows, micro-batch "
        f"{GATE_BATCH}): cold {server_stats['cold win/s']} windows/s, "
        f"warm {server_stats['warm win/s']} windows/s "
        f"({server_stats['cache hits']} cache hits)",
    ]
    save_result("serving_throughput", "\n".join(lines))

    by_batch = {row["micro-batch"]: row for row in rows}
    # Acceptance gate: >= 3x at the representative serving micro-batch size.
    assert by_batch[GATE_BATCH]["speedup"] >= 3.0, by_batch[GATE_BATCH]
    # The folded path should never lose badly anywhere on the sweep.
    assert all(row["speedup"] > 0.8 for row in rows), rows
    # Cache re-use must make the warm pass much faster than the cold one.
    assert server_stats["warm win/s"] > server_stats["cold win/s"], server_stats
    assert server_stats["cache hits"] >= 64
