"""Fleet orchestration: many corridors, one shared model, spatial incidents,
coordinated region refits.

Run with::

    python examples/fleet_demo.py           # 24 corridors, ~300-step stream
    python examples/fleet_demo.py --fast    # 12 corridors, shorter stream

The script demonstrates the ``repro.fleet`` subsystem end to end:

1. build a corridor road graph and one live traffic feed per corridor; a
   connected cluster of neighboring corridors takes a scripted
   ``incident_storm`` (capacity-drop burst), and each of the two regions
   later takes a noise regime shift;
2. drive all corridors as a :class:`~repro.fleet.StreamFleet`: every stream
   keeps its own adaptive conformal calibrator, rolling monitor and drift
   detectors, but all per-tick predicts funnel through **one** shared
   micro-batched :class:`~repro.serving.InferenceServer` — a tick over N
   corridors is ~1 model call, not N;
3. watch the :class:`~repro.fleet.SpatialDriftAggregator` collapse the
   cluster's correlated per-stream alarms into a single
   ``spatial_incident`` event naming the affected corridors;
4. watch the :class:`~repro.streaming.RefitCoordinator` answer each region's
   regime shift with ONE budgeted refit: the east region's candidate
   (honestly re-scaled) wins its cross-stream trial and is *promoted* —
   the region's routes re-point atomically — while the west region's
   deliberately degraded candidate loses and is *rejected*, all with zero
   dropped requests;
5. print the fleet snapshot — per-corridor rolling coverage/MAE, the shared
   server's serving counters, and the fleet event log — the same dict a
   ``/metrics`` endpoint would export.

The persistence baseline keeps the demo model-free and fast; swap in any
fitted :class:`~repro.api.Forecaster` (``forecaster.fleet(...)``) for the
same loop over a trained model.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.inference import PredictionResult
from repro.data import StreamingTrafficFeed, SyntheticTrafficConfig
from repro.fleet import SpatialDriftAggregator, StreamFleet
from repro.graph import grid_network
from repro.serving import InferenceServer
from repro.streaming import ErrorCusumDetector, PersistenceForecaster, RefitPolicy
from repro.utils import format_table

HISTORY, HORIZON = 8, 4

#: Flat daily profile so the scripted events are the only nonstationarity.
FLAT = SyntheticTrafficConfig(peak_amplitude=0.0, weekend_attenuation=1.0)


class BiasedPersistence:
    """A deliberately degraded refit: persistence plus a constant bias.

    Stands in for a refit gone wrong (bad window, corrupted data) — the
    trial must catch it and reject the candidate.
    """

    def __init__(self, horizon: int, offset: float, sigma: float) -> None:
        self.horizon, self.offset, self.sigma = int(horizon), float(offset), float(sigma)

    def predict(self, windows: np.ndarray) -> PredictionResult:
        mean = np.repeat(windows[:, -1:, :], self.horizon, axis=1) + self.offset
        variance = np.full_like(mean, self.sigma ** 2)
        return PredictionResult(
            mean=mean, aleatoric_var=variance, epistemic_var=np.zeros_like(mean)
        )


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="fewer corridors, shorter stream")
    parser.add_argument("--steps", type=int, default=None, help="stream length (default per preset)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    rows, cols = (3, 4) if args.fast else (4, 6)
    steps = args.steps or (200 if args.fast else 320)
    # storm after the detectors' warmup, then one regime shift per region
    storm_at, storm_len = int(steps * 0.35), max(steps // 8, 20)
    east_shift_at, west_shift_at = int(steps * 0.55), int(steps * 0.75)

    corridor_graph = grid_network(rows, cols)
    sensors = grid_network(2, 2)  # each corridor observes 4 sensors
    num_corridors = corridor_graph.num_nodes
    half = num_corridors // 2
    # a connected 2x2 corridor block in the east half takes the storm
    anchor = (rows // 2 - 1) * cols + cols // 2 - 1
    cluster = {anchor, anchor + 1, anchor + cols, anchor + cols + 1}

    def region_of(node: int):
        if node in cluster:
            return None  # the storm cluster is the spatial demo, not a refit domain
        return "east" if node < half else "west"

    print(f"=== {num_corridors} corridors | storm on {sorted(cluster)} at "
          f"step {storm_at} | regime shifts: east@{east_shift_at}, "
          f"west@{west_shift_at} ===")
    feeds = {}
    for node in range(num_corridors):
        name = f"c{node}"
        if node in cluster:
            feeds[name] = StreamingTrafficFeed.scenario(
                sensors, "incident_storm", num_steps=steps, seed=node,
                start=storm_at, duration=storm_len, rate=0.5, severity=0.7,
                config=FLAT,
            )
        else:
            shift_at = east_shift_at if region_of(node) == "east" else west_shift_at
            feeds[name] = StreamingTrafficFeed.scenario(
                sensors, "regime_shift", num_steps=steps, seed=node,
                start=shift_at, noise_scale=3.0, config=FLAT,
            )

    def refit_fn(region, recents):
        # ONE refit per drifting region, pooled over its streams' recent
        # data.  East re-estimates its scale honestly; west's "refit" is
        # broken on purpose so the trial has something to reject.
        if region == "east":
            return PersistenceForecaster(horizon=HORIZON, sigma=75.0)
        return BiasedPersistence(HORIZON, offset=120.0, sigma=25.0)

    model = PersistenceForecaster(horizon=HORIZON, sigma=25.0)
    server = InferenceServer(
        model.predict, model_version="shared-v0",
        max_batch_size=2 * num_corridors, max_wait_ms=2.0,
    )
    expected_predictions = predictions_received = 0
    with server:
        fleet = StreamFleet(
            server, HISTORY, HORIZON,
            aci={"window": 500, "gamma": 0.01},
            # slack absorbs the slow heteroscedastic error drift (noise sigma
            # tracks the flow level); only a genuine jump accumulates
            detector_factory=lambda: [ErrorCusumDetector(slack=1.5, threshold=30.0, warmup=50)],
            refit_fn=refit_fn,
            refit_policy=RefitPolicy(
                # roughly half the region must drift together — scattered
                # single-stream noise never launches a region refit
                quorum=3 if args.fast else 5,
                window=30, cooldown=steps, max_concurrent=1,
                eval_steps=30, mae_tolerance=0.05, coverage_tolerance=0.25,
            ),
            spatial=SpatialDriftAggregator(
                corridor_graph.adjacency_matrix(weighted=False),
                window=30, min_cluster=3, cooldown=steps,
            ),
        )
        for node in range(num_corridors):
            fleet.add_stream(f"c{node}", region=region_of(node), node=node)

        iterators = {name: iter(feed) for name, feed in feeds.items()}
        for t in range(steps):
            result = fleet.tick({name: next(it) for name, it in iterators.items()})
            if t >= HISTORY - 1:
                expected_predictions += len(result.results)
            predictions_received += sum(
                1 for _, step in result if step.prediction is not None
            )
            for event in result.events:
                print(f"  !! {event}")
        fleet.join_refits()

        snapshot = fleet.snapshot()
        stats = snapshot["server"]
        print("\n=== Shared serving path ===")
        print(f"requests served : {stats['requests_served']} "
              f"(dropped: {expected_predictions - predictions_received}, "
              f"route fallbacks: {stats['route_fallbacks']})")
        print(f"model batches   : {stats['batches_dispatched']} "
              f"(mean batch {stats['mean_batch_size']:.1f} — "
              f"~1 model call per tick for {num_corridors} corridors)")
        print(f"region routes   : {snapshot['region_deployments']}")

        print("\n=== Per-corridor rolling metrics (sample) ===")
        sample = sorted(cluster) + [0, num_corridors - 1]
        rows_out = []
        for node in sample:
            entry = snapshot["streams"][f"c{node}"]
            metrics = entry["metrics"]
            rows_out.append([
                f"c{node}" + (" *storm*" if node in cluster else f" ({region_of(node)})"),
                f"{metrics['coverage']:.1f}",
                f"{metrics['mae']:.1f}",
                sum(1 for e in entry["events"] if e["kind"] == "error_cusum"),
            ])
        print(format_table(["corridor", "coverage %", "MAE", "drift events"], rows_out))

        incidents = [e for e in fleet.event_log if e.kind == "spatial_incident"]
        print(f"\n=== Spatial incidents: {len(incidents)} ===")
        for event in incidents:
            print(f"  {event}")
        if incidents:
            print("N correlated per-corridor alarms collapsed into "
                  "one fleet-level incident event.")

        print("\n=== Coordinated refits ===")
        for event in fleet.event_log:
            if event.kind.startswith("region_"):
                print(f"  {event}")
        print("One budgeted refit per drifting region: east's candidate won "
              "its cross-stream trial (promoted), west's degraded candidate "
              "lost (rejected) — zero requests dropped either way.")


if __name__ == "__main__":
    main()
