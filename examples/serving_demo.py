"""Serving demo: a fitted UQ method behind the threaded inference server.

Run with::

    python examples/serving_demo.py          # small preset
    python examples/serving_demo.py --fast   # tiny preset, a few seconds

The script walks through the serving stack added on top of the batched
Monte-Carlo engine:

1. train a heteroscedastic AGCRN with MC dropout (the "Combined" method);
2. time looped vs. vectorized (sample-folded) MC inference, both through
   :class:`~repro.core.inference.BatchedPredictor`;
3. start an :class:`~repro.serving.InferenceServer` (micro-batching + LRU
   cache + worker pool) and push a stream of single-window requests at it,
   including duplicates that the cache absorbs;
4. print the serving statistics.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import TrainingConfig
from repro.core.inference import BatchedPredictor
from repro.data import SlidingWindowDataset, load_pems, train_val_test_split
from repro.uq import create_method
from repro.utils import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="tiny dataset and very short training")
    parser.add_argument("--num-samples", type=int, default=8, help="MC dropout samples per forecast")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    size = "tiny" if args.fast else "small"

    print(f"Loading synthetic PEMS08 ({size}) ...")
    traffic = load_pems("PEMS08", size=size)
    train, val, test = train_val_test_split(traffic)

    history, horizon = (6, 3) if args.fast else (12, 6)
    config = TrainingConfig(
        history=history,
        horizon=horizon,
        hidden_dim=8 if args.fast else 16,
        embed_dim=3,
        epochs=3 if args.fast else 8,
        mc_samples=args.num_samples,
    )
    print("Fitting the Combined method (heteroscedastic heads + MC dropout) ...")
    method = create_method("Combined", traffic.num_nodes, config=config)
    method.fit(train, val)

    windows, _ = SlidingWindowDataset(
        test.slice_steps(0, 60), history=history, horizon=horizon
    ).arrays()
    probe = windows[:4]

    print("Timing looped vs batched MC inference ...")
    predictor = BatchedPredictor(method.model, method.scaler)
    scaled = method.scaler.transform(probe)
    seconds = {}
    for vectorized in (False, True):
        start = time.perf_counter()
        predictor.monte_carlo(
            scaled, args.num_samples, rng=np.random.default_rng(0), vectorized=vectorized
        )
        seconds[vectorized] = time.perf_counter() - start
    looped, batched = seconds[False], seconds[True]
    print(format_table(
        ["path", "latency (ms)", "speedup"],
        [["looped", looped * 1000.0, 1.0], ["batched", batched * 1000.0, looped / batched]],
        title=f"{len(probe)} windows x {args.num_samples} MC samples",
    ))

    print()
    print("Serving a request stream (every window twice -> 50% cache hits) ...")
    request_stream = np.concatenate([windows, windows], axis=0)
    server = method.serve(max_batch_size=8, max_wait_ms=2.0, cache_size=2048)
    with server:
        start = time.perf_counter()
        results = server.predict_many(request_stream)
        elapsed = time.perf_counter() - start
        stats = server.stats
    print(f"  served {len(results)} requests in {elapsed:.2f}s "
          f"({len(results) / elapsed:.0f} windows/s)")
    print(format_table(
        ["stat", "value"],
        [[name, value] for name, value in sorted(stats.items())],
        title="Server statistics",
    ))
    first = results[0]
    print(f"\nFirst forecast: mean[0,0]={first.mean[0, 0, 0]:.1f}, "
          f"95% interval half-width={1.96 * first.std[0, 0, 0]:.1f}")


if __name__ == "__main__":
    main()
