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

The observation and forecast sides have **one implementation, over a batch
of cores**: :func:`resolve_many` scores every pending forecast a tick's
observations complete, and :func:`record_many` calibrates and records a
tick's forecasts, each as a few array operations over ``(streams × horizon
× sensors)`` instead of a Python loop per stream.  The fleet calls them once
per tick; :meth:`StreamCore.resolve`, :meth:`~StreamCore.record` and
:meth:`~StreamCore.calibrate` are their one-core calls, which is what the
solo runner uses.  Results are bit-identical to a per-stream loop: every
reduction that feeds state runs over the same compacted elements in the same
order (see :func:`~repro.streaming.monitor.update_monitors`), and the
sequential sorted-mirror inserts stay a scalar loop.  Cores may differ in
sensor count, interval mode, ACI configuration and monitor window; the batch
code groups them and never assumes one shape.  A tick's recorded forecasts
are stored as one block per field, and each core's pending entries are rows
of those blocks, so resolving gathers the due rows by indexing.

The batch code (here, in :mod:`~repro.streaming.aci` and in
:mod:`~repro.streaming.monitor`) keeps to NumPy operations that hold the
interpreter lock on small arrays: one-dimensional indices into flat arrays
or row views, boolean masks, ufuncs and reductions.  ``np.unique``,
``np.sort``, ``np.arange``, ``np.take`` and fancy indexing with several
index arrays or whole rows release the lock even for a handful of values,
and each release makes the calling thread queue for it again behind any
busy thread (a server's workers, a client): that once made a solo stream
beside a busy server 30x slower.

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
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.inference import PredictionResult
from repro.obs.profiler import phase as obs_phase
from repro.streaming.aci import (
    ACIConfig,
    AdaptiveConformalCalibrator,
    calibrated_bounds,
    fold_bounds,
    native_bounds,
    nonconformity,
    update_many,
)
from repro.streaming.drift import (
    CoverageBreachDetector,
    DriftEvent,
    ErrorCusumDetector,
    EventLog,
)
from repro.streaming.monitor import StreamingMonitor, update_monitors

#: On-disk format revision of :meth:`StreamCore.get_state`.  Version 2 added
#: the drift-detector state and the history / pending / recent ledgers;
#: :meth:`StreamCore.set_state` reads version 2 only.
STREAM_CORE_FORMAT_VERSION = 2

#: Fields every pending-ledger entry serializes as ``pending.<i>.<field>``.
_PENDING_FIELDS = ("mean", "scale", "lower", "upper")
_PENDING_NATIVE_FIELDS = ("native_lower", "native_upper")


class Forecasts(NamedTuple):
    """One record call's forecasts: ``(rows, horizon, nodes)`` per field.

    ``mean`` and ``scale`` are the raw forecast and its local nonconformity
    scale, ``lower`` / ``upper`` the emitted bounds and ``native_lower`` /
    ``native_upper`` the native reference bounds (``None`` without them).
    """

    mean: np.ndarray
    scale: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    native_lower: Optional[np.ndarray]
    native_upper: Optional[np.ndarray]

    @classmethod
    def single(cls, fields: Dict[str, Optional[np.ndarray]]) -> "Forecasts":
        """A one-row block from ``(horizon, nodes)`` arrays keyed by field."""
        return cls(
            *(
                None if fields.get(name) is None else np.asarray(fields[name])[None]
                for name in cls._fields
            )
        )


class Pending(NamedTuple):
    """One pending-ledger entry: row ``row`` of ``forecasts``, made at ``step``."""

    step: int
    forecasts: Forecasts
    row: int

    def field(self, name: str) -> Optional[np.ndarray]:
        """This entry's ``(horizon, nodes)`` row of one :class:`Forecasts` field."""
        block = getattr(self.forecasts, name)
        return None if block is None else block[self.row]


@dataclass
class ResolvedStep:
    """Everything one ingested observation resolved on a stream core."""

    observed: np.ndarray                     # raw observation row (1-D)
    filled: np.ndarray                       # gap-filled row appended to history
    valid: np.ndarray                        # which sensors were actually observed
    covered: Optional[float]                 # step coverage over resolved rows
    abs_error: Optional[float]               # step MAE over resolved rows
    events: List[DriftEvent] = field(default_factory=list)
    # Aligned stacks of the resolved forecasts (None when nothing resolved);
    # rows of the batch :func:`resolve_many` gathered, so read-only:
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
        A one-core :func:`resolve_many`.
        """
        return resolve_many([self], [s], [obs], [valid])[0]

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
        return np.array(self._history)[None]

    def calibrate(
        self, raw: PredictionResult
    ) -> Tuple[PredictionResult, np.ndarray, np.ndarray]:
        """Width-adapt a raw result without recording it (candidate scoring).

        The calibration half of a one-core :func:`record_many`.
        """
        return _calibrate([self], [raw], record=False)[0]

    def record(
        self, raw: PredictionResult
    ) -> Tuple[PredictionResult, np.ndarray, np.ndarray]:
        """Calibrate the step's forecast and append it to the pending ledger.

        Returns ``(calibrated, lower, upper)`` with the bounds squeezed to
        ``(horizon, nodes)``.  The ledger entry keeps whatever the resolver
        will need later: the raw mean, the local scale, the emitted bounds
        and — for native-bound methods — the method's own asymmetric bounds.
        A one-core :func:`record_many`.
        """
        return record_many([self], [raw])[0]

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
                native = entry.forecasts.native_lower is not None
                pending_meta.append({"step": int(entry.step), "native": native})
                names = _PENDING_FIELDS + (_PENDING_NATIVE_FIELDS if native else ())
                for field_name in names:
                    arrays[f"pending.{index}.{field_name}"] = np.asarray(
                        entry.field(field_name), dtype=np.float64
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

        Only :data:`STREAM_CORE_FORMAT_VERSION` snapshots are read; any
        other version raises ``ValueError``.
        """
        meta = state["meta"]
        if meta.get("kind") != "stream_core":
            raise ValueError(
                f"state was saved by {meta.get('kind')!r}, not a stream core"
            )
        version = meta.get("format_version")
        if version != STREAM_CORE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported stream-core state format {version!r} "
                f"(this build reads version {STREAM_CORE_FORMAT_VERSION})"
            )
        arrays = state["arrays"]
        with self._lock:
            # _restore_ledgers rebuilds the recent deque at this length.
            self.refit_window = int(meta["refit_window"])
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
        """Rebuild the history / pending / recent deques from a snapshot."""
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
            names = _PENDING_FIELDS + (
                _PENDING_NATIVE_FIELDS if entry_meta["native"] else ()
            )
            forecasts = Forecasts.single(
                {
                    name: np.asarray(
                        arrays[f"pending.{index}.{name}"], dtype=np.float64
                    ).copy()
                    for name in names
                }
            )
            self._pending.append(Pending(int(entry_meta["step"]), forecasts, 0))

    def __repr__(self) -> str:
        return (
            f"StreamCore(history={self.history}, horizon={self.horizon}, "
            f"step={self._step}, mode={self.calibrator.config.mode!r}, "
            f"events={len(self.event_log)})"
        )


# ---------------------------------------------------------------------- #
# The batch implementation behind StreamCore.resolve / record / calibrate
# ---------------------------------------------------------------------- #
def resolve_many(
    cores: Sequence[StreamCore],
    steps: Sequence[int],
    observations: Sequence[np.ndarray],
    valids: Sequence[np.ndarray],
) -> List[ResolvedStep]:
    """Resolve one observation row on each of many cores in one pass.

    ``observations[i]`` / ``valids[i]`` are core ``i``'s normalized row and
    validity mask (:meth:`StreamCore.normalize`) for step ``steps[i]``.
    Every pending forecast the row completes is scored: calibration scores,
    miscoverage and the ``alpha_t`` updates run as array operations over all
    due rows of all cores (:func:`~repro.streaming.aci.update_many`), then
    every core's rolling monitor takes its rows
    (:func:`~repro.streaming.monitor.update_monitors`).  Cores are grouped
    by sensor count; each core's ``_lock`` is held around its own mutations,
    never two at once.
    """
    resolved = [
        ResolvedStep(observed=obs, filled=obs, valid=valid, covered=None, abs_error=None)
        for obs, valid in zip(observations, valids)
    ]
    by_width: Dict[int, List[int]] = {}
    for i, obs in enumerate(observations):
        by_width.setdefault(obs.shape[-1], []).append(i)
    for members in by_width.values():
        _resolve_group(
            [cores[i] for i in members],
            [steps[i] for i in members],
            np.stack([observations[i] for i in members]),
            np.stack([valids[i] for i in members]),
            [resolved[i] for i in members],
        )
    return resolved


def _resolve_group(
    cores: List[StreamCore],
    steps: List[int],
    obs: np.ndarray,
    valid: np.ndarray,
    resolved: List[ResolvedStep],
) -> None:
    """:func:`resolve_many` over cores whose rows share one sensor count."""
    with obs_phase("aci_update"):
        # Due ledger rows, core-major and in ledger order (the order a
        # per-core loop would visit them).
        owners: List[int] = []
        horizons: List[int] = []
        made: List[int] = []
        cqr: List[bool] = []
        blocks: Dict[int, Tuple[Forecasts, List[int], List[int], List[int]]] = {}
        counts: List[int] = []
        for owner, (core, s) in enumerate(zip(cores, steps)):
            before = len(owners)
            with core._lock:
                native = core.calibrator.uses_native()
                for entry in core._pending:
                    h = s - entry.step - 1
                    if not 0 <= h < core.horizon:
                        continue
                    forecasts = entry.forecasts
                    slot = blocks.get(id(forecasts))
                    if slot is None:
                        slot = blocks[id(forecasts)] = (forecasts, [], [], [])
                    slot[1].append(len(owners))
                    slot[2].append(entry.row)
                    slot[3].append(h)
                    owners.append(owner)
                    horizons.append(h)
                    made.append(entry.step)
                    cqr.append(native and forecasts.native_lower is not None)
            counts.append(len(owners) - before)
        if not owners:
            return
        rows, width = len(owners), obs.shape[1]
        any_cqr = any(cqr)
        names = Forecasts._fields if any_cqr else _PENDING_FIELDS
        due = {name: np.full((rows, width), np.nan) for name in names}
        # Flat 1-D gathers and writes (see the module docstring on the lock).
        for forecasts, ks, block_rows, hs in blocks.values():
            horizon = forecasts.mean.shape[1]
            source = (np.asarray(block_rows) * horizon + np.asarray(hs)) * width
            source = np.add.outer(source, range(width)).ravel()
            target_cells = np.add.outer(np.asarray(ks) * width, range(width)).ravel()
            for name in names:
                block = getattr(forecasts, name)
                if block is not None:
                    due[name].reshape(-1)[target_cells] = block.reshape(-1)[source]
        row_owner = np.asarray(owners, dtype=np.intp)
        # Rows are core-major, so repeating each core's row is the gather.
        observed = np.repeat(obs, counts, axis=0)
        valid_rows = np.repeat(valid, counts, axis=0)
        target = np.where(valid_rows, observed, np.nan)
        y = observed[valid_rows]
        lower = due["lower"][valid_rows]
        upper = due["upper"][valid_rows]
        lengths = valid_rows.sum(axis=1)
        scores = nonconformity(
            y,
            due["mean"][valid_rows],
            due["scale"][valid_rows],
            due["native_lower"][valid_rows] if any_cqr else None,
            due["native_upper"][valid_rows] if any_cqr else None,
            native=np.repeat(np.asarray(cqr), lengths) if any_cqr else False,
        )
        outside = np.concatenate(([0], np.cumsum((y < lower) | (y > upper))))
        ends = np.cumsum(lengths)
        miss = np.divide(
            outside[ends] - outside[ends - lengths],
            lengths,
            out=np.full(rows, np.nan),
            where=lengths > 0,
        )
        update_many(
            [core.calibrator for core in cores],
            row_owner,
            horizons,
            scores,
            lengths,
            miss,
            locks=[core._lock for core in cores],
        )

    with obs_phase("monitor_update"):
        scored = [i for i, count in enumerate(counts) if count]
        stats = update_monitors(
            [cores[i].monitor for i in scored],
            target,
            due["mean"],
            due["lower"],
            due["upper"],
            [counts[i] for i in scored],
            locks=[cores[i]._lock for i in scored],
        )
    made_steps = np.asarray(made)
    start = 0
    for i, row_stats in zip(scored, stats):
        stop = start + counts[i]
        step = resolved[i]
        step.target = target[start:stop]
        step.mean = due["mean"][start:stop]
        step.lower = due["lower"][start:stop]
        step.upper = due["upper"][start:stop]
        step.steps = made_steps[start:stop]
        if row_stats is not None:
            step.covered, step.abs_error = row_stats[0], row_stats[2]
        start = stop


def record_many(
    cores: Sequence[StreamCore], raws: Sequence[PredictionResult]
) -> List[Tuple[PredictionResult, np.ndarray, np.ndarray]]:
    """Calibrate each core's step forecast and append it to its ledger.

    Returns ``(calibrated, lower, upper)`` per core with the bounds squeezed
    to ``(horizon, nodes)``.  Cores are grouped by forecast shape and
    interval mode; each group's conformal levels, bounds and folded results
    are computed once over the stacked forecasts, which become the block
    the group's new ledger entries are rows of.
    """
    with obs_phase("calibrate"):
        return [
            (calibrated, lower[0], upper[0])
            for calibrated, lower, upper in _calibrate(cores, raws, record=True)
        ]


def _calibrate(
    cores: Sequence[StreamCore], raws: Sequence[PredictionResult], record: bool
) -> List[Tuple[PredictionResult, np.ndarray, np.ndarray]]:
    """Per core ``(calibrated, lower, upper)``, bounds shaped like the raw mean."""
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for i, (core, raw) in enumerate(zip(cores, raws)):
        if raw.mean.shape[1] != core.horizon:
            raise ValueError(
                f"result has horizon {raw.mean.shape[1]}, calibrator expects {core.horizon}"
            )
        with core._lock:
            native = core.calibrator.uses_native(raw)
        groups.setdefault((raw.mean.shape, native, raw.has_native_bounds), []).append(i)
    out: List[Any] = [None] * len(cores)
    for (shape, native, _), members in groups.items():
        per = shape[0]
        stacked = PredictionResult.concatenate([raws[i] for i in members])
        calibrators = [cores[i].calibrator for i in members]
        scale = AdaptiveConformalCalibrator._scale(stacked)
        reference = native_bounds(calibrators, stacked, scale) if native else None
        lower, upper = calibrated_bounds(calibrators, stacked, scale, reference)
        calibrated = fold_bounds(stacked, lower, upper, native)
        if record:
            forecasts = Forecasts(
                stacked.mean,
                scale,
                lower,
                upper,
                *(reference if native else (stacked.lower, stacked.upper)),
            )
        for j, i in enumerate(members):
            rows = slice(j * per, (j + 1) * per)
            out[i] = (calibrated[rows], lower[rows], upper[rows])
            if record:
                core = cores[i]
                with core._lock:
                    core._pending.append(Pending(core._step, forecasts, j * per))
    return out
