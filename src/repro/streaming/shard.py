"""The per-stream predict → observe → update core, extracted from the runner.

:class:`StreamCore` is the model-free state machine one live stream needs:
the rolling history window, the pending-forecast ledger, the per-horizon
:class:`~repro.streaming.aci.AdaptiveConformalCalibrator`, the rolling
:class:`~repro.streaming.monitor.StreamingMonitor`, the drift detectors and
the event log.  What it deliberately does *not* own is the model call — the
caller fetches :meth:`window`, obtains a
:class:`~repro.core.inference.PredictionResult` however it likes (a direct
``predict``, or a shared batched
:class:`~repro.serving.InferenceServer`), and hands it back through
:meth:`record`.

That split is what lets one process scale from one stream to a fleet:

* :class:`~repro.streaming.runner.StreamingForecaster` wires a single core to
  a single forecaster — the classic one-stream loop;
* :class:`~repro.fleet.StreamFleet` owns one core per corridor and funnels
  *all* per-tick windows through one shared micro-batched server, so a tick
  over N streams costs ``O(ceil(N / batch))`` model calls instead of N.

Both loops drive a core through the same phase order and run their refits
on the same :mod:`repro.streaming.promotion` machinery (the solo runner as a
one-stream region), so a one-stream fleet and the solo runner produce
bit-identical forecasts, refits and trial verdicts.

The **full** online state round-trips bit-identically through
:meth:`get_state` / :meth:`set_state` (the shared array-protocol shape used
across the repo), which is what fleet checkpoints shard per stream: the
calibration buffers, the rolling monitor windows, the event log, the drift
detectors (coverage-breach ring and debounce counters, error-CUSUM statistic
and frozen Welford baseline), the history window, the pending-forecast
ledger, the retained refit observations and the carry-forward imputation
state.  A core killed mid-drift and restored therefore continues the stream
exactly where it stopped — same forecasts, same resolutions, same detector
firings at the same steps as an uninterrupted run (format version 2; version
1 checkpoints, which omitted detectors and ledgers, are still readable and
simply resume with fresh detectors and a cold window).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.inference import PredictionResult
from repro.obs.profiler import phase as obs_phase
from repro.streaming.aci import ACIConfig, AdaptiveConformalCalibrator
from repro.streaming.drift import (
    CoverageBreachDetector,
    DriftEvent,
    ErrorCusumDetector,
    EventLog,
)
from repro.streaming.monitor import StreamingMonitor

#: On-disk format revision of :meth:`StreamCore.get_state`.  Version 2 added
#: the drift-detector state and the history / pending / recent ledgers;
#: version 1 checkpoints are still readable (detectors and ledgers restore
#: empty, the pre-fix behaviour).
STREAM_CORE_FORMAT_VERSION = 2

#: Fields every pending-ledger entry serializes as ``pending.<i>.<field>``.
_PENDING_FIELDS = ("mean", "scale", "lower", "upper")
_PENDING_NATIVE_FIELDS = ("native_lower", "native_upper")


@dataclass
class ResolvedStep:
    """Everything one ingested observation resolved on a stream core."""

    observed: np.ndarray                     # raw observation row (1-D)
    filled: np.ndarray                       # gap-filled row appended to history
    valid: np.ndarray                        # which sensors were actually observed
    covered: Optional[float]                 # step coverage over resolved rows
    abs_error: Optional[float]               # step MAE over resolved rows
    events: List[DriftEvent] = field(default_factory=list)
    # Aligned stacks of the resolved forecasts (None when nothing resolved):
    target: Optional[np.ndarray] = None      # (rows, nodes) NaN-masked targets
    mean: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    steps: Optional[np.ndarray] = None       # step each resolved forecast was made at


class StreamCore:
    """Model-free online state of one stream.

    Parameters mirror the per-stream subset of
    :class:`~repro.streaming.runner.StreamingForecaster`:

    history, horizon:
        Window geometry.
    calibrator / aci:
        An :class:`AdaptiveConformalCalibrator`, or keyword overrides for a
        default one's :class:`ACIConfig`.
    monitor:
        A :class:`StreamingMonitor` (default: rolling day at the calibrator's
        significance).
    detectors:
        Drift detectors consuming the per-step coverage / abs-error signals;
        defaults to a coverage-breach plus an error-CUSUM detector.
    refit_window:
        How many recent gap-filled observations :meth:`recent` retains.
    """

    def __init__(
        self,
        history: int,
        horizon: int,
        calibrator: Optional[AdaptiveConformalCalibrator] = None,
        aci: Optional[Dict[str, Any]] = None,
        monitor: Optional[StreamingMonitor] = None,
        detectors: Optional[Sequence[Any]] = None,
        refit_window: int = 288,
    ) -> None:
        if history < 1 or horizon < 1:
            raise ValueError("history and horizon must be >= 1")
        self.history = int(history)
        self.horizon = int(horizon)
        if calibrator is not None:
            if calibrator.horizon != self.horizon:
                raise ValueError(
                    f"calibrator horizon {calibrator.horizon} does not match "
                    f"stream horizon {self.horizon}"
                )
            self.calibrator = calibrator
        else:
            self.calibrator = AdaptiveConformalCalibrator(
                self.horizon, config=ACIConfig(**(aci or {}))
            )
        significance = self.calibrator.config.significance
        self.monitor = (
            monitor if monitor is not None else StreamingMonitor(significance=significance)
        )
        self.detectors = (
            list(detectors)
            if detectors is not None
            else [
                CoverageBreachDetector(nominal=1.0 - significance),
                ErrorCusumDetector(),
            ]
        )
        self.event_log = EventLog()
        self.refit_window = int(refit_window)
        self._lock = threading.Lock()
        self._history: deque = deque(maxlen=self.history)
        self._pending: deque = deque(maxlen=self.horizon)
        self._recent: deque = deque(maxlen=self.refit_window)
        self._last_filled: Optional[np.ndarray] = None
        self._step = 0

    # ------------------------------------------------------------------ #
    @property
    def step(self) -> int:
        """Number of observations ingested so far."""
        return self._step

    @property
    def warmed_up(self) -> bool:
        return len(self._history) == self.history

    @staticmethod
    def normalize(
        observation: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten one observation row and derive its validity mask."""
        obs = np.asarray(observation, dtype=np.float64).reshape(-1)
        valid = np.isfinite(obs)
        if mask is not None:
            valid &= np.asarray(mask, dtype=bool).reshape(-1)
        return obs, valid

    # ------------------------------------------------------------------ #
    # Observation side
    # ------------------------------------------------------------------ #
    def resolve(self, s: int, obs: np.ndarray, valid: np.ndarray) -> ResolvedStep:
        """Score every pending forecast that observation ``s`` completes.

        Each resolved horizon row feeds the per-horizon calibrator (scores
        plus realized miscoverage) and, stacked, the rolling monitor.  The
        aligned stacks come back on the :class:`ResolvedStep` so callers can
        feed side-by-side evaluations (candidate trials) the exact same rows.
        """
        targets, means, lowers, uppers, steps = [], [], [], [], []
        masked = np.where(valid, obs, np.nan)
        with obs_phase("aci_update"), self._lock:
            for entry in self._pending:
                h = s - entry["step"] - 1
                if not 0 <= h < self.horizon:
                    continue
                mu, scale = entry["mean"][h], entry["scale"][h]
                lo, up = entry["lower"][h], entry["upper"][h]
                targets.append(masked)
                means.append(mu)
                lowers.append(lo)
                uppers.append(up)
                steps.append(entry["step"])
                if valid.any():
                    nat_lo, nat_up = entry["native_lower"], entry["native_upper"]
                    scores = self.calibrator.score(
                        obs[valid],
                        mu[valid],
                        scale[valid],
                        lower=nat_lo[h][valid] if nat_lo is not None else None,
                        upper=nat_up[h][valid] if nat_up is not None else None,
                    )
                    miss = float(((obs[valid] < lo[valid]) | (obs[valid] > up[valid])).mean())
                else:
                    scores, miss = np.empty(0), None
                self.calibrator.update(h, scores, miscoverage=miss)
        resolved = ResolvedStep(
            observed=obs, filled=obs, valid=valid, covered=None, abs_error=None
        )
        if not targets:
            return resolved
        target = np.stack(targets)
        mean = np.stack(means)
        resolved.target = target
        resolved.mean = mean
        resolved.lower = np.stack(lowers)
        resolved.upper = np.stack(uppers)
        resolved.steps = np.asarray(steps)
        with obs_phase("monitor_update"):
            resolved.covered = self.monitor.update(
                target, mean, resolved.lower, resolved.upper
            )
        finite = np.isfinite(target)
        if finite.any():
            resolved.abs_error = float(np.mean(np.abs(target[finite] - mean[finite])))
        return resolved

    def detect(
        self, s: int, covered: Optional[float], abs_error: Optional[float]
    ) -> List[DriftEvent]:
        """Route one step's signals through the detectors; log any firings."""
        signals = {"coverage": covered, "abs_error": abs_error}
        events: List[DriftEvent] = []
        with obs_phase("drift_detect"):
            for detector in self.detectors:
                event = detector.update(s, signals.get(getattr(detector, "signal", "coverage")))
                if event is not None:
                    events.append(self.event_log.append(event))
        return events

    def append(self, obs: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Ingest the row into the history window (carry-forward imputation)."""
        if self._last_filled is None:
            filled = np.where(valid, obs, 0.0)
        else:
            filled = np.where(valid, obs, self._last_filled)
        self._last_filled = filled
        self._history.append(filled)
        self._recent.append(filled)
        return filled

    def ingest(
        self, observation: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> ResolvedStep:
        """Resolve + detect + append for one observation row (one call).

        Convenience composition for driving a bare core directly (scripts,
        custom loops); the runner and the fleet call the pieces individually
        so they can interleave candidate-trial scoring between them.  Does
        **not** advance the step counter — call :meth:`advance` once the
        step's forecast has been recorded.
        """
        obs, valid = self.normalize(observation, mask)
        s = self._step
        resolved = self.resolve(s, obs, valid)
        resolved.events.extend(self.detect(s, resolved.covered, resolved.abs_error))
        resolved.filled = self.append(obs, valid)
        return resolved

    def advance(self) -> int:
        """Close the step; returns the index of the step just completed."""
        s = self._step
        self._step += 1
        return s

    # ------------------------------------------------------------------ #
    # Forecast side
    # ------------------------------------------------------------------ #
    def window(self) -> Optional[np.ndarray]:
        """The current ``(1, history, nodes)`` model input, or ``None`` cold."""
        if not self.warmed_up:
            return None
        return np.stack(self._history, axis=0)[None]

    def calibrate(
        self, raw: PredictionResult
    ) -> Tuple[PredictionResult, np.ndarray, np.ndarray]:
        """Width-adapt a raw result without recording it (candidate scoring)."""
        with self._lock:
            lower_b, upper_b = self.calibrator.intervals(raw)
            calibrated = self.calibrator.fold(raw, lower_b, upper_b)
        return calibrated, lower_b, upper_b

    def record(
        self, raw: PredictionResult
    ) -> Tuple[PredictionResult, np.ndarray, np.ndarray]:
        """Calibrate the step's forecast and append it to the pending ledger.

        Returns ``(calibrated, lower, upper)`` with the bounds squeezed to
        ``(horizon, nodes)``.  The ledger entry keeps whatever the resolver
        will need later: the raw mean, the local scale, the emitted bounds
        and — for native-bound methods — the method's own asymmetric bounds.
        """
        with obs_phase("unscale"), self._lock:
            lower_b, upper_b = self.calibrator.intervals(raw)
            calibrated = self.calibrator.fold(raw, lower_b, upper_b)
            scale = self.calibrator._scale(raw)
            if self.calibrator.uses_native():
                # Effective reference bounds (the method's own, or Gaussian
                # ones synthesized for a bound-less model on a native-latched
                # stream) — what the CQR scores resolve against later.
                native_lower, native_upper = self.calibrator.native_reference(raw)
                native_lower, native_upper = native_lower[0], native_upper[0]
            else:
                native_lower = raw.lower[0] if raw.lower is not None else None
                native_upper = raw.upper[0] if raw.upper is not None else None
            self._pending.append(
                {
                    "step": self._step,
                    "mean": raw.mean[0],
                    "scale": scale[0],
                    "lower": lower_b[0],
                    "upper": upper_b[0],
                    "native_lower": native_lower,
                    "native_upper": native_upper,
                }
            )
        return calibrated, lower_b[0], upper_b[0]

    # ------------------------------------------------------------------ #
    # Recalibration support
    # ------------------------------------------------------------------ #
    def recent(self) -> Optional[np.ndarray]:
        """The retained ``(steps, nodes)`` recent observations (refit input)."""
        return np.stack(self._recent, axis=0) if self._recent else None

    def reset_scores(self, keep_alpha: bool = True) -> None:
        """Rebuild the nonconformity buffers (post-drift recalibration)."""
        with self._lock:
            self.calibrator.reset_scores(keep_alpha=keep_alpha)

    # ------------------------------------------------------------------ #
    # State protocol (sharded per stream by fleet checkpoints)
    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        """The full online state as ``{"meta", "arrays"}``.

        Restoring through :meth:`set_state` is bit-identical for every
        calibration buffer, rolling metric window, logged event, drift
        detector and ledger row: the history window, the pending-forecast
        ledger and the retained refit observations are checkpointed too, so
        a restored core resumes mid-stream instead of re-warming — the
        invariant the chaos suite's kill-and-restore scenarios assert.
        """
        with self._lock:
            aci_state = self.calibrator.get_state()
            monitor_state = self.monitor.get_state()
            arrays = dict(aci_state["arrays"])
            arrays.update(monitor_state["arrays"])
            detector_metas: List[Optional[Dict[str, Any]]] = []
            for index, detector in enumerate(self.detectors):
                getter = getattr(detector, "get_state", None)
                if not callable(getter):
                    # Custom detectors may not speak the protocol; record the
                    # gap so restore knows the slot intentionally holds none.
                    detector_metas.append(None)
                    continue
                det_state = getter()
                detector_metas.append(det_state["meta"])
                for key, value in det_state["arrays"].items():
                    arrays[f"detector.{index}.{key}"] = value
            pending_meta: List[Dict[str, Any]] = []
            for index, entry in enumerate(self._pending):
                pending_meta.append(
                    {
                        "step": int(entry["step"]),
                        "native": entry["native_lower"] is not None,
                    }
                )
                for field_name in _PENDING_FIELDS:
                    arrays[f"pending.{index}.{field_name}"] = np.asarray(
                        entry[field_name], dtype=np.float64
                    )
                if entry["native_lower"] is not None:
                    for field_name in _PENDING_NATIVE_FIELDS:
                        arrays[f"pending.{index}.{field_name}"] = np.asarray(
                            entry[field_name], dtype=np.float64
                        )
            arrays["core.history"] = (
                np.stack(self._history, axis=0)
                if self._history
                else np.zeros((0, 0), dtype=np.float64)
            )
            arrays["core.recent"] = (
                np.stack(self._recent, axis=0)
                if self._recent
                else np.zeros((0, 0), dtype=np.float64)
            )
            if self._last_filled is not None:
                arrays["core.last_filled"] = np.asarray(
                    self._last_filled, dtype=np.float64
                )
            meta = {
                "kind": "stream_core",
                "format_version": STREAM_CORE_FORMAT_VERSION,
                "history": self.history,
                "horizon": self.horizon,
                "refit_window": self.refit_window,
                "step": self._step,
                "aci": aci_state["meta"],
                "monitor": monitor_state["meta"],
                "detectors": detector_metas,
                "pending": pending_meta,
                "events": self.event_log.to_records(),
            }
        return {"meta": meta, "arrays": arrays}

    def set_state(self, state: Dict[str, Any]) -> "StreamCore":
        """Restore a :meth:`get_state` snapshot (bit-identical round trip).

        Version-1 snapshots (pre detector/ledger checkpointing) restore what
        they carry — calibration, monitor, events, step — and leave the
        detectors and ledgers as freshly constructed.
        """
        meta = state["meta"]
        if meta.get("kind") != "stream_core":
            raise ValueError(
                f"state was saved by {meta.get('kind')!r}, not a stream core"
            )
        version = meta.get("format_version")
        if version not in (1, STREAM_CORE_FORMAT_VERSION):
            raise ValueError(
                f"unsupported stream-core state format {version!r} "
                f"(this build reads versions 1-{STREAM_CORE_FORMAT_VERSION})"
            )
        arrays = state["arrays"]
        with self._lock:
            refit_window = int(meta.get("refit_window", self.refit_window))
            if refit_window != self.refit_window:
                self.refit_window = refit_window
                self._recent = deque(self._recent, maxlen=refit_window)
            self.calibrator.set_state({"meta": meta["aci"], "arrays": arrays})
            monitor_meta = meta["monitor"]
            if self.monitor.window != int(monitor_meta["window"]):
                self.monitor = StreamingMonitor(
                    window=int(monitor_meta["window"]),
                    significance=float(monitor_meta["significance"]),
                )
            self.monitor.set_state({"meta": monitor_meta, "arrays": arrays})
            self.event_log = EventLog.from_records(meta["events"])
            self._step = int(meta["step"])
            if version >= 2:
                self._restore_detectors(meta["detectors"], arrays)
                self._restore_ledgers(meta["pending"], arrays)
        return self

    def _restore_detectors(
        self, metas: List[Optional[Dict[str, Any]]], arrays: Dict[str, Any]
    ) -> None:
        """Restore detector state into matching live detectors (by slot + kind).

        Behaviour lives in code, state in the checkpoint (the fleet-load
        philosophy): a slot whose stored kind no longer matches the
        constructed detector — or that stored no state at all — keeps the
        fresh detector rather than failing the whole restore.
        """
        for index, (detector, det_meta) in enumerate(zip(self.detectors, metas)):
            if det_meta is None:
                continue
            setter = getattr(detector, "set_state", None)
            if not callable(setter) or det_meta.get("kind") != getattr(
                detector, "kind", None
            ):
                continue
            prefix = f"detector.{index}."
            det_arrays = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            setter({"meta": det_meta, "arrays": det_arrays})

    def _restore_ledgers(
        self, pending_meta: List[Dict[str, Any]], arrays: Dict[str, Any]
    ) -> None:
        """Rebuild the history / pending / recent deques from a v2 snapshot."""
        history = np.asarray(arrays["core.history"], dtype=np.float64)
        self._history = deque(
            (row.copy() for row in history), maxlen=self.history
        )
        recent = np.asarray(arrays["core.recent"], dtype=np.float64)
        self._recent = deque(
            (row.copy() for row in recent), maxlen=self.refit_window
        )
        last_filled = arrays.get("core.last_filled")
        self._last_filled = (
            np.asarray(last_filled, dtype=np.float64).copy()
            if last_filled is not None
            else None
        )
        self._pending = deque(maxlen=self.horizon)
        for index, entry_meta in enumerate(pending_meta):
            entry: Dict[str, Any] = {"step": int(entry_meta["step"])}
            for field_name in _PENDING_FIELDS:
                entry[field_name] = np.asarray(
                    arrays[f"pending.{index}.{field_name}"], dtype=np.float64
                ).copy()
            for field_name in _PENDING_NATIVE_FIELDS:
                entry[field_name] = (
                    np.asarray(
                        arrays[f"pending.{index}.{field_name}"], dtype=np.float64
                    ).copy()
                    if entry_meta["native"]
                    else None
                )
            self._pending.append(entry)

    def __repr__(self) -> str:
        return (
            f"StreamCore(history={self.history}, horizon={self.horizon}, "
            f"step={self._step}, mode={self.calibrator.config.mode!r}, "
            f"events={len(self.event_log)})"
        )
