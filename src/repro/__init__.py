"""DeepSTUQ reproduction: unified uncertainty quantification for traffic forecasting.

This package reproduces "Uncertainty Quantification for Traffic Forecasting:
A Unified Approach" (ICDE 2023).  It contains:

* ``repro.tensor`` / ``repro.nn`` / ``repro.optim`` — a from-scratch NumPy
  deep-learning substrate (autodiff, layers, optimizers).
* ``repro.graph`` / ``repro.data`` — road-network and synthetic PEMS traffic
  data substrates.
* ``repro.models`` — the AGCRN base model and the paper's point-prediction
  baselines.
* ``repro.uq`` — uncertainty-quantification methods (MVE, MC dropout,
  temperature scaling, FGE, conformal, CFRNN, ...) and DeepSTUQ itself.
* ``repro.core`` — the parts of DeepSTUQ's training stages: combined loss,
  AWA re-training, temperature calibration, Monte-Carlo inference.
* ``repro.metrics`` / ``repro.evaluation`` — metrics and the experiment
  harness regenerating every table and figure of the paper.
* ``repro.serving`` — request micro-batching, LRU prediction caching and a
  threaded inference server over the vectorized Monte-Carlo engine.
* ``repro.streaming`` — the online loop: adaptive conformal calibration,
  rolling monitors, drift detection and auto-recalibrating serving.
* ``repro.fleet`` — fleet-scale orchestration: many per-corridor streams
  over one shared batched server, spatial drift aggregation, coordinated
  region refits and whole-fleet checkpoints.
* ``repro.api`` — the unified Forecaster facade: declarative
  (backbone x method x config) specs, one fit/predict surface and
  full-state directory checkpoints.
* ``repro.obs`` — the observability layer: end-to-end request tracing,
  per-tick phase profiling and structured event logging (off by default,
  constant-time when off).
"""

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "nn",
    "optim",
    "graph",
    "data",
    "models",
    "uq",
    "core",
    "metrics",
    "evaluation",
    "serving",
    "streaming",
    "fleet",
    "api",
    "obs",
    "utils",
]
