"""Fleet-scale orchestration: many streams, one shared batched serving path.

The streaming subsystem keeps *one* corridor honest online; production
traffic means hundreds of per-corridor streams in one process.  Run them as
independent :class:`~repro.streaming.StreamingForecaster` loops and every
tick costs N sequential model calls — the model dominates, so the fleet
inverts the ownership:

* each corridor keeps its **own** per-stream state — an
  :class:`~repro.streaming.shard.StreamCore` holding its adaptive conformal
  calibrator, rolling monitor, drift detectors and event log, sharded and
  checkpointed per stream;
* all per-tick predicts funnel through **one shared**
  :class:`~repro.serving.InferenceServer`: the fleet batch-submits every
  warm stream's window in one call, the micro-batcher coalesces them, and a
  tick over N streams is ``O(ceil(N / batch))`` model calls — routed
  per-corridor via :class:`~repro.serving.KeyRouter` so regions can run
  different deployments;
* the shared view enables capabilities no single stream can have: a
  **spatial drift aggregator** (correlated breaches across neighboring
  sensors collapse into one ``spatial_incident`` event instead of N
  independent alarms), **coordinated refit/promotion** (one candidate per
  drifting region, trialed across all of that region's streams and
  published by re-pointing the region's routing keys, under a refit-storm
  budget), and **whole-fleet checkpoints** that round-trip every stream's
  ACI / monitor / event-log state bit-identically.

The refit machinery itself — :class:`~repro.streaming.promotion.RefitPolicy`,
:class:`~repro.streaming.promotion.RefitCoordinator` and
:class:`~repro.streaming.promotion.Trial` — lives in
:mod:`repro.streaming.promotion`, below both loops: the one-stream
:class:`~repro.streaming.StreamingForecaster` runs on it as a one-stream
region.
"""

from repro.fleet.runner import FleetStepResult, StreamFleet
from repro.fleet.spatial import SpatialDriftAggregator
from repro.fleet.streams import FleetStream

__all__ = [
    "FleetStepResult",
    "FleetStream",
    "SpatialDriftAggregator",
    "StreamFleet",
]
