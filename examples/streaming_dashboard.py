"""Streaming dashboard: live coverage through a mid-stream regime shift.

Run with::

    python examples/streaming_dashboard.py          # ~1400-step stream
    python examples/streaming_dashboard.py --fast   # shorter stream, ~2 s

The script demonstrates the ``repro.streaming`` subsystem end to end:

1. generate a :class:`~repro.data.StreamingTrafficFeed` whose observation
   noise jumps 2.5x half-way through the stream (a regime shift);
2. replay it through two online loops sharing a persistence forecaster —
   one with frozen split-conformal calibration, one with adaptive conformal
   inference (ACI) plus drift detection, a drift-triggered refit (the
   predictive scale is re-estimated from post-shift residuals) and
   publication to an :class:`~repro.serving.InferenceServer` (the refit is
   deployed and promoted to the default route at the next step);
3. print the rolling-coverage timeline — static coverage collapses after
   the shift while ACI pulls back to ~95% — and the drift, refit and promotion event log.

The persistence baseline keeps the demo model-free and fast; swap in any
fitted :class:`~repro.api.Forecaster` (``forecaster.stream(...)``) for the
same loop over a trained model.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.data import StreamingTrafficFeed, SyntheticTrafficConfig
from repro.graph import grid_network
from repro.serving import InferenceServer
from repro.streaming import (
    CoverageBreachDetector,
    ErrorCusumDetector,
    PersistenceForecaster,
    RefitPolicy,
    StreamingForecaster,
    StreamingMonitor,
)
from repro.utils import format_table

HISTORY, HORIZON = 8, 4


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="shorter stream")
    parser.add_argument("--steps", type=int, default=None, help="stream length (default per preset)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    steps = args.steps or (700 if args.fast else 1400)
    shift = steps // 2
    network = grid_network(3, 3)

    print(f"Generating a {steps}-step stream with a 2.5x noise regime shift at step {shift} ...")
    feed = StreamingTrafficFeed.scenario(
        network, "regime_shift", num_steps=steps, seed=7, noise_scale=2.5,
        config=SyntheticTrafficConfig(noise_fraction=0.25),
    )

    # Persistence forecaster with a scale estimated on the pre-shift regime —
    # the online analogue of calibrating on a static validation split.
    sigma0 = float(np.median(np.abs(np.diff(feed.values[: shift // 2], axis=0))))
    model = PersistenceForecaster(horizon=HORIZON, sigma=sigma0)
    print(f"Persistence forecaster with pre-shift scale estimate sigma={sigma0:.1f}")

    def refit_fn(recent: np.ndarray) -> PersistenceForecaster:
        """Re-estimate the predictive scale from the drifted recent window."""
        sigma = float(np.median(np.abs(np.diff(recent, axis=0))))
        return PersistenceForecaster(horizon=HORIZON, sigma=sigma)

    monitor_window = min(288, max(steps // 5, 60))
    runners = {}
    # The static baseline gets *no* detectors: it models yesterday's batch
    # pipeline — calibrate once, freeze, hope.  The ACI loop carries the full
    # adaptive system: drift alarms, background refit, deploy + promote publication.
    server = InferenceServer(model.predict, model_version="dashboard-v0", cache_size=0).start()
    runners["static"] = StreamingForecaster(
        model, history=HISTORY, horizon=HORIZON,
        aci={"mode": "static", "window": 1800},
        monitor=StreamingMonitor(window=monitor_window),
        detectors=[],
    )
    runners["ACI"] = StreamingForecaster(
        model, history=HISTORY, horizon=HORIZON,
        aci={"mode": "aci", "window": 1800, "gamma": 0.01},
        monitor=StreamingMonitor(window=monitor_window),
        detectors=[
            # Calibration alarm: rolling coverage collapsed.
            CoverageBreachDetector(
                nominal=0.95, tolerance=0.08, window=100,
                patience=25, warmup=max(shift // 2, 100),
            ),
            # Accuracy alarm: the error level itself jumped (fires even
            # when ACI keeps coverage afloat by widening the intervals).
            ErrorCusumDetector(slack=1.0, threshold=25.0, warmup=min(shift - 25, 300)),
        ],
        server=server,
        refit_fn=refit_fn,
        refit_window=max(shift // 3, 100),
        refit_policy=RefitPolicy(quorum=1, mode="immediate", cooldown=max(steps // 3, 100)),
    )

    print("Replaying the stream through both calibration modes ...")
    checkpoints = sorted({shift - 1, *range(steps // 7, steps, steps // 7), steps - 1})
    timeline = {label: {} for label in runners}
    for t, row in enumerate(feed):
        for label, runner in runners.items():
            runner.observe(row)
            if t in checkpoints:
                timeline[label][t] = runner.monitor.coverage
    for runner in runners.values():
        runner.join_refit()

    rows = [
        [
            t,
            "post-shift" if t >= shift else "pre-shift",
            f"{timeline['static'][t]:.1f}",
            f"{timeline['ACI'][t]:.1f}",
        ]
        for t in checkpoints
    ]
    print()
    print(format_table(
        ["step", "regime", "static coverage %", "ACI coverage %"],
        rows,
        title=f"Rolling coverage (window {monitor_window} steps, nominal 95%)",
    ))

    aci_runner = runners["ACI"]
    print("\nEvent log (ACI loop):")
    events = list(aci_runner.event_log)
    if not events:
        print("  (no events fired)")
    for event in events[:10]:
        print(f"  {event}")
    if len(events) > 10:
        remaining = len(events) - 10
        print(f"  ... (+{remaining} more; the CUSUM alarm keeps re-firing while "
              "the error level stays above its pre-shift baseline)")
    if aci_runner.server is not None:
        print(f"\nServer model version after drift-triggered promotion: {aci_runner.server.model_version}")
        aci_runner.server.stop()

    print(
        f"\nFinal rolling coverage — static: {runners['static'].monitor.coverage:.1f}%  "
        f"ACI: {aci_runner.monitor.coverage:.1f}% (target 95%)"
    )


if __name__ == "__main__":
    main()
