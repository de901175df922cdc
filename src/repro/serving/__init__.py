"""Production-style serving layer over the batched inference engine.

Cooperating pieces:

* :class:`~repro.serving.batching.MicroBatcher` — a size-or-deadline request
  queue that groups the windows of many submits into micro-batches;
* :class:`~repro.serving.cache.SharedPredictionCache` — a thread-safe LRU
  keyed on ``(model version, input hash, inference params)``: one global
  entry budget, per-deployment namespaces, fair-share eviction;
* :class:`~repro.serving.pool.ModelPool` /
  :class:`~repro.serving.pool.Deployment` — named, versioned models behind
  one endpoint, with an atomically re-pointable default route
  (``promote`` / ``rollback``) and per-deployment rolling stats;
* :mod:`repro.serving.router` — pluggable request routing:
  :class:`~repro.serving.router.KeyRouter` (per-region / per-corridor),
  :class:`~repro.serving.router.TrafficSplitRouter` (weighted canary
  splits), :class:`~repro.serving.router.ShadowRouter` (mirror to a
  candidate without affecting responses);
* :class:`~repro.serving.server.InferenceServer` — the thread-pool
  dispatcher tying them together.

Single-model usage::

    server = method.serve(max_batch_size=32, cache_size=4096)
    with server:
        results = server.predict_many(windows)   # list of PredictionResult
        server.deploy(server.pool.default_name, refitted, version="v2")  # hot swap

Multi-model serving with canary promotion::

    server = InferenceServer(cache_size=8192, router=KeyRouter({"north": "regional"}))
    server.deploy("regional", "ckpt/mcdo-north")          # checkpoint path
    server.deploy("global", forecaster, version="v3")     # Forecaster / UQ method
    with server:
        server.submit(window, key="north")                # routed per key
        server.deploy("candidate", refitted, version="v4")
        server.router = ShadowRouter(shadows=["candidate"])  # live mirror
        ...
        server.promote("candidate")   # atomic, zero dropped requests
        server.rollback("candidate")  # or back out just as atomically
"""

from repro.serving.batching import InferenceRequest, MicroBatcher
from repro.serving.cache import SharedPredictionCache, prediction_cache_key
from repro.serving.pool import Deployment, ModelPool, resolve_predict_fn
from repro.serving.router import (
    KeyRouter,
    RouteDecision,
    Router,
    ShadowRouter,
    TrafficSplitRouter,
)
from repro.serving.server import InferenceServer, ServerStopped, serve_method

__all__ = [
    "InferenceRequest",
    "MicroBatcher",
    "SharedPredictionCache",
    "prediction_cache_key",
    "Deployment",
    "ModelPool",
    "resolve_predict_fn",
    "Router",
    "RouteDecision",
    "KeyRouter",
    "TrafficSplitRouter",
    "ShadowRouter",
    "InferenceServer",
    "ServerStopped",
    "serve_method",
]
