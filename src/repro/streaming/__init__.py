"""Online forecasting: adaptive conformal calibration, drift detection, serving.

The batch pipeline computes its conformal and calibration guarantees once,
on a static validation split; this subsystem keeps them alive on a *stream*:

* :mod:`repro.streaming.aci` — per-horizon adaptive conformal inference
  (Gibbs & Candes ``alpha_t`` updates + rolling nonconformity scores) over
  any UQ method's :class:`~repro.core.inference.PredictionResult`;
* :mod:`repro.streaming.monitor` — O(1) ring-buffer rolling metrics
  (coverage, interval width, MAE/RMSE, Winkler score);
* :mod:`repro.streaming.drift` — coverage-breach and error-CUSUM drift
  detectors emitting typed :class:`~repro.streaming.drift.DriftEvent`\\ s;
* :mod:`repro.streaming.promotion` — the one refit path both loops share:
  :class:`RefitPolicy` (quorum, cooldown, budget, ``immediate`` / ``shadow``
  / ``canary`` publication), the :class:`RefitCoordinator` that launches
  refits and the candidate-vs-incumbent :class:`Trial`;
* :mod:`repro.streaming.runner` — the :class:`StreamingForecaster` loop
  driving predict → observe → update, with NaN-masked partial observations
  and drift-triggered refits run as a one-stream region; a refit is adopted
  at the ``observe`` after it finishes, and with a server attached every
  publication is a zero-drop deploy + promote of its default route.

Typical usage::

    stream = forecaster.stream(aci={"gamma": 0.01, "window": 2000})
    for row in feed:                       # rows may contain NaN dropouts
        result = stream.observe(row)
        if result.prediction is not None:
            lower, upper = result.lower, result.upper
    print(stream.monitor.snapshot(), list(stream.event_log))
"""

from repro.streaming.aci import (
    ACI_INTERVAL_MODES,
    ACI_MODES,
    ACIConfig,
    AdaptiveConformalCalibrator,
)
from repro.streaming.baseline import PersistenceForecaster
from repro.streaming.drift import (
    CoverageBreachDetector,
    DriftEvent,
    ErrorCusumDetector,
    EventLog,
)
from repro.streaming.monitor import RollingStat, StreamingMonitor
from repro.streaming.promotion import REFIT_MODES, RefitCoordinator, RefitPolicy, Trial
from repro.streaming.runner import StepResult, StreamingForecaster
from repro.streaming.shard import ResolvedStep, StreamCore

__all__ = [
    "REFIT_MODES",
    "RefitCoordinator",
    "RefitPolicy",
    "Trial",
    "ACI_INTERVAL_MODES",
    "ACI_MODES",
    "ACIConfig",
    "AdaptiveConformalCalibrator",
    "PersistenceForecaster",
    "CoverageBreachDetector",
    "ErrorCusumDetector",
    "DriftEvent",
    "EventLog",
    "RollingStat",
    "StreamingMonitor",
    "StepResult",
    "StreamingForecaster",
    "ResolvedStep",
    "StreamCore",
]
