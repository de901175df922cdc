"""Canary promotion: drift → refit → shadow eval → auto-promote (or reject).

Run with::

    python examples/canary_promotion.py          # ~1000-step stream
    python examples/canary_promotion.py --fast   # shorter stream, ~2 s

The script demonstrates the multi-model serving layer end to end:

1. a persistence forecaster (scale calibrated pre-shift) serves a regime-
   shifting stream behind an :class:`~repro.serving.InferenceServer`, while
   background client threads keep submitting windows — every one of their
   futures must resolve, through every deployment change;
2. the drift detector fires after the shift and the refit is **staged as a
   named candidate deployment** instead of being swapped in blindly: the
   server mirrors live traffic to it (shadow mode) while the streaming loop
   scores candidate and incumbent on the same observations;
3. after ``eval_steps`` scored steps the candidate's rolling MAE/coverage
   are compared with the incumbent's and it is **promoted** — the default
   route re-points atomically, zero requests dropped;
4. the same machinery is then shown *rejecting* a deliberately degraded
   refit: the candidate loses the trial, is rolled back off the pool, and
   the incumbent keeps serving.

The full decision log — drift alarms, staging, verdicts, promotions — is
printed at the end of each phase.
"""

from __future__ import annotations

import argparse
import threading

import numpy as np

from repro.data import StreamingTrafficFeed, SyntheticTrafficConfig
from repro.graph import grid_network
from repro.serving import InferenceServer
from repro.streaming import (
    CoverageBreachDetector,
    PersistenceForecaster,
    RefitPolicy,
    StreamingForecaster,
)

HISTORY, HORIZON = 8, 4


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="shorter stream")
    return parser.parse_args()


def make_feed(steps: int) -> StreamingTrafficFeed:
    network = grid_network(3, 3)
    return StreamingTrafficFeed.scenario(
        network, "regime_shift", num_steps=steps, seed=7, noise_scale=2.5,
        config=SyntheticTrafficConfig(noise_fraction=0.25),
    )


def run_phase(title: str, steps: int, degrade: bool) -> None:
    shift = steps // 2
    feed = make_feed(steps)
    sigma0 = float(np.median(np.abs(np.diff(feed.values[: shift // 2], axis=0))))
    incumbent = PersistenceForecaster(horizon=HORIZON, sigma=sigma0)

    def refit_fn(recent: np.ndarray) -> PersistenceForecaster:
        """Re-estimate the scale post-drift; optionally sabotage it."""
        sigma = float(np.median(np.abs(np.diff(recent, axis=0))))
        if degrade:
            # A refit gone wrong: a scale 25x too small produces confident,
            # badly-covering intervals — exactly what a gate must catch.
            sigma = max(sigma / 25.0, 1e-3)
        return PersistenceForecaster(horizon=HORIZON, sigma=sigma)

    server = InferenceServer(
        incumbent.predict, model_version="prod-v0", max_wait_ms=1.0, cache_size=512
    )
    runner = StreamingForecaster(
        incumbent, history=HISTORY, horizon=HORIZON,
        # Frozen split-conformal calibration: its coverage collapses after
        # the shift, which is exactly what arms the drift detector.
        aci={"mode": "static", "window": 1800},
        detectors=[
            CoverageBreachDetector(
                nominal=0.95, tolerance=0.08, window=100,
                patience=25, warmup=max(shift // 2, 100),
            )
        ],
        server=server,
        refit_fn=refit_fn,
        refit_window=max(shift // 3, 100),
        refit_policy=RefitPolicy(
            quorum=1, cooldown=max(steps // 3, 100),
            mode="shadow", eval_steps=max(steps // 10, 40),
            coverage_tolerance=0.03,
        ),
    )

    print(f"\n=== {title} ===")
    print(f"{steps}-step stream, 2.5x noise shift at step {shift}; "
          f"incumbent sigma={sigma0:.1f}")

    submitted, resolved = [], []
    stop = threading.Event()

    def client() -> None:
        rng = np.random.default_rng(11)
        while not stop.is_set():
            window = rng.uniform(0.0, 600.0, size=(HISTORY, feed.values.shape[1]))
            submitted.append(server.submit(window))

    with server:
        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        for row in feed:
            runner.observe(row)
        runner.join_refit()  # a refit still running is adopted by the next observe
        stop.set()
        thread.join(timeout=10.0)
        resolved = [future.result(timeout=30.0) for future in submitted]

    print(f"client traffic: {len(resolved)}/{len(submitted)} requests resolved "
          f"(dropped: {len(submitted) - len(resolved)})")
    print(f"default route: {server.pool.default_name!r} "
          f"(version {server.model_version}), deployments: {server.pool.names()}")
    snapshot = runner.monitor.snapshot()
    print(f"rolling metrics now: coverage {snapshot['coverage']:.1f}%, "
          f"MAE {snapshot['mae']:.1f}")
    print("decision log:")
    for event in runner.event_log:
        if event.kind in ("coverage_breach", "candidate_staged", "model_swapped",
                          "candidate_promoted", "candidate_rejected", "recalibrated"):
            print(f"  {event}")


def main() -> None:
    args = parse_args()
    steps = 500 if args.fast else 1000
    run_phase("Phase 1: honest refit -> shadow eval -> auto-promote",
              steps, degrade=False)
    run_phase("Phase 2: degraded refit -> shadow eval -> reject + rollback",
              steps, degrade=True)
    print("\nSame gate, opposite verdicts: candidates earn promotion on live "
          "traffic, and a bad refit never reaches clients.")


if __name__ == "__main__":
    main()
