"""The online forecasting loop: predict → observe → update → (re)calibrate.

:class:`StreamingForecaster` turns a fitted batch forecaster into a live
system.  It is a one-stream region: the per-stream state machine (pending
ledger, adaptive conformal calibration, rolling monitors, drift detectors)
lives in a :class:`~repro.streaming.shard.StreamCore`, and refits run on the
same :class:`~repro.streaming.promotion.RefitCoordinator` and
:class:`~repro.streaming.promotion.Trial` as the multi-stream
:class:`~repro.fleet.StreamFleet`, with a quorum of 1.  The fleet owns many
cores and funnels their per-tick predicts through one shared batched server;
this runner calls its one model directly.

Each call to :meth:`observe` ingests one observation row (NaN entries mark
dropped-out sensors) in the fleet's phase order:

1. **resolve** every pending forecast the new observation completes — the
   prediction made ``h+1`` steps ago forecast this step at horizon index
   ``h`` — feeding the rolling monitor, the per-horizon
   :class:`~repro.streaming.aci.AdaptiveConformalCalibrator` and, during a
   trial, both sides of the candidate-vs-incumbent comparison; then
   **detect drift** (every detector event counts) and append the row;
2. **publish**: settle a finished trial's verdict, adopt refits that have
   finished since the last step (a background refit is adopted here, on the
   loop's thread, at the next :meth:`observe`), and **trigger** a refit when
   drift meets the cooldown.  Adoption rebuilds the nonconformity buffers
   from post-drift data and publishes the model according to the
   :class:`~repro.streaming.promotion.RefitPolicy`: immediately, or after a
   shadow/canary trial it must win on rolling MAE/coverage.  With a server
   attached, every publication is a deploy + promote of the server's
   default route (zero dropped requests), and a trial mirrors or splits the
   server's external traffic onto the candidate;
3. **forecast** the next ``horizon`` steps from the updated window and emit
   width-adapted conformal intervals (during a trial the candidate forecasts
   the same window, and a candidate whose ``predict`` raises fails its
   trial);
4. **advance** the step.

The runner is deliberately model-agnostic: anything with a batch ``predict``
returning a :class:`~repro.core.inference.PredictionResult` works — a
:class:`~repro.api.Forecaster`, a raw UQ method, or the persistence baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.inference import PredictionResult
from repro.streaming.aci import AdaptiveConformalCalibrator
from repro.streaming.drift import DriftEvent, EventLog
from repro.streaming.monitor import StreamingMonitor
from repro.streaming.promotion import RefitCoordinator, RefitPolicy, Trial
from repro.streaming.shard import StreamCore


@dataclass
class StepResult:
    """Everything one :meth:`StreamingForecaster.observe` call produced."""

    step: int
    observed: np.ndarray                     # the ingested (gap-filled) row
    mask: np.ndarray                         # which sensors were actually observed
    prediction: Optional[PredictionResult]   # calibrated forecast, (1, H, N); None during warm-up
    lower: Optional[np.ndarray]              # conformal bounds of that forecast, (H, N)
    upper: Optional[np.ndarray]
    coverage: float                          # rolling coverage (percent; NaN early on)
    events: List[DriftEvent] = field(default_factory=list)
    served_by: str = "incumbent"             # "incumbent" | "candidate" (canary trials)


def _predictor(model: Any) -> Callable[[np.ndarray], PredictionResult]:
    """A model's batch predict function (the model itself when it is one)."""
    predict = getattr(model, "predict", model)
    if not callable(predict):
        raise TypeError("refit_fn must return a predictor or predict function")
    return predict


class StreamingForecaster:
    """Online wrapper driving a batch forecaster over a live observation feed.

    Parameters
    ----------
    forecaster:
        Object with ``predict(windows) -> PredictionResult``; its training
        config (when present) supplies ``history`` / ``horizon`` defaults.
    history, horizon:
        Window geometry; required only when ``forecaster`` does not carry a
        config exposing them.
    calibrator:
        An :class:`AdaptiveConformalCalibrator`; built from ``aci`` keyword
        defaults when omitted.
    aci:
        Keyword overrides for the default calibrator's :class:`ACIConfig`
        (ignored when ``calibrator`` is given).
    monitor:
        A :class:`StreamingMonitor`; a default rolling-day monitor is built
        when omitted.
    detectors:
        Drift detectors consuming the per-step ``coverage`` / ``abs_error``
        signals; defaults to a coverage-breach plus an error-CUSUM detector.
    server:
        Optional :class:`~repro.serving.InferenceServer` that external
        clients query; every publication deploys the refit on it and
        promotes it to the default route (queued requests are never
        dropped).
    refit_fn:
        ``refit_fn(recent) -> model`` producing a replacement predictor from
        the ``(steps, nodes)`` array of recent observations.  Without it,
        recalibration still rebuilds the conformal state online.
    refit_window:
        How many recent observations are retained for ``refit_fn``.
    version_prefix:
        Prefix of the candidate names and versions published to ``server``.
    refit_policy:
        A :class:`~repro.streaming.promotion.RefitPolicy` with ``quorum=1``.
        The default publishes immediately, waits at least 100 steps between
        refits and refits on a background thread; ``mode="shadow"`` or
        ``"canary"`` stage each refit as a candidate that is promoted only
        when it beats the incumbent on live observations.
    """

    #: The runner's one-stream region and its one stream, as the refit
    #: coordinator knows them.
    REGION = "stream"

    def __init__(
        self,
        forecaster: Any,
        history: Optional[int] = None,
        horizon: Optional[int] = None,
        calibrator: Optional[AdaptiveConformalCalibrator] = None,
        aci: Optional[Dict[str, Any]] = None,
        monitor: Optional[StreamingMonitor] = None,
        detectors: Optional[Sequence[Any]] = None,
        server: Optional[Any] = None,
        refit_fn: Optional[Callable[[Optional[np.ndarray]], Any]] = None,
        refit_window: int = 288,
        version_prefix: str = "stream",
        refit_policy: Optional[RefitPolicy] = None,
    ) -> None:
        self.forecaster = forecaster
        history, horizon = self._resolve_geometry(forecaster, history, horizon)
        if calibrator is not None and calibrator.horizon != horizon:
            raise ValueError(
                f"calibrator horizon {calibrator.horizon} does not match "
                f"runner horizon {horizon}"
            )
        if refit_policy is None:
            # window=1: a drift counts only at the step it fires, so one that
            # lands inside the cooldown is dropped rather than deferred.
            refit_policy = RefitPolicy(quorum=1, window=1, cooldown=100, mode="immediate")
        if refit_policy.quorum != 1:
            raise ValueError("a single stream is a one-stream region: quorum must be 1")
        self.core = StreamCore(
            history,
            horizon,
            calibrator=calibrator,
            aci=aci,
            monitor=monitor,
            detectors=detectors,
            refit_window=refit_window,
        )
        self.server = server
        self.refit_fn = refit_fn
        self.version_prefix = str(version_prefix)
        self.coordinator = RefitCoordinator(self._refit, policy=refit_policy)
        self._predict: Callable[[np.ndarray], PredictionResult] = forecaster.predict
        self._displaced: Optional[str] = None  # incumbent kept for manual rollback
        self._router: Optional[Any] = None     # caller's router while a trial runs

    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_geometry(
        forecaster: Any, history: Optional[int], horizon: Optional[int]
    ) -> Tuple[int, int]:
        """History/horizon from explicit args, else the forecaster's config."""
        config = getattr(forecaster, "config", None)
        if config is None:
            config = getattr(getattr(forecaster, "method", None), "config", None)
        if history is None:
            history = getattr(config, "history", None)
        if horizon is None:
            horizon = getattr(config, "horizon", None) or getattr(forecaster, "horizon", None)
        if history is None or horizon is None:
            raise ValueError(
                "cannot infer history/horizon from the forecaster; pass history= and horizon="
            )
        if history < 1 or horizon < 1:
            raise ValueError("history and horizon must be >= 1")
        return int(history), int(horizon)

    # Per-stream state lives on the core; these keep the runner's historical
    # surface (tests, examples and downstream code read runner.monitor etc.).
    @property
    def history(self) -> int:
        return self.core.history

    @property
    def horizon(self) -> int:
        return self.core.horizon

    @property
    def calibrator(self) -> AdaptiveConformalCalibrator:
        return self.core.calibrator

    @property
    def monitor(self) -> StreamingMonitor:
        return self.core.monitor

    @property
    def detectors(self) -> List[Any]:
        return self.core.detectors

    @property
    def event_log(self) -> EventLog:
        return self.core.event_log

    @property
    def refit_window(self) -> int:
        return self.core.refit_window

    @property
    def step(self) -> int:
        """Number of observations ingested so far."""
        return self.core.step

    @property
    def warmed_up(self) -> bool:
        return self.core.warmed_up

    @property
    def trial(self) -> Optional[Trial]:
        """The live candidate trial while a shadow/canary evaluation runs."""
        return self.coordinator.trials.get(self.REGION)

    # ------------------------------------------------------------------ #
    # The online loop
    # ------------------------------------------------------------------ #
    def observe(
        self, observation: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> StepResult:
        """Ingest one observation row and emit the next calibrated forecast."""
        core, coordinator = self.core, self.coordinator
        obs, valid = core.normalize(observation, mask)
        s = core.step

        # 1. Resolve (scoring both trial sides on the same rows), detect,
        #    append.  Only detector events reach the coordinator as drift.
        resolved = core.resolve(s, obs, valid)
        trial = self.trial
        if trial is not None:
            trial.observe_incumbent(self.REGION, resolved)
            trial.resolve(self.REGION, s, obs, valid)
        events = core.detect(s, resolved.covered, resolved.abs_error)
        drift = events[0] if events else None
        if drift is not None:
            coordinator.note_drift(self.REGION, self.REGION, s)
        filled = core.append(obs, valid)

        # 2. Settle the verdict, adopt finished refits, trigger.
        if trial is not None:
            decision = trial.verdict()
            if decision is not None:
                events.extend(self._finish_trial(trial, decision, s))
        for _, model, error in coordinator.take_finished():
            events.extend(self._adopt(model, error, s))
        if coordinator.maybe_trigger(s, lambda region: {region: core.recent()}):
            events.append(self._log(
                "recalibration_started", s,
                value=drift.value if drift is not None else 0.0,
                threshold=drift.threshold if drift is not None else 0.0,
                message=(
                    f"triggered by {drift.kind}" if drift is not None
                    else "triggered by drift within the quorum window"
                ),
            ))

        # 3. Forecast; during a trial the candidate forecasts the same
        #    window and, in canary mode, serves its share of the output.
        prediction = lower = upper = None
        served_by = "incumbent"
        window = core.window()
        if window is not None:
            prediction, lower, upper = core.record(self._predict(window))
            trial = self.trial
            if trial is not None:
                try:
                    candidate_raw = _predictor(trial.model)(window)
                except Exception as error:
                    events.extend(self._abort_trial(trial, error, s))
                else:
                    calibrated, cand_lower, cand_upper = core.calibrate(candidate_raw)
                    trial.record(
                        self.REGION, s, candidate_raw.mean[0], cand_lower[0], cand_upper[0]
                    )
                    if trial.serve_candidate_now():
                        prediction, lower, upper = calibrated, cand_lower[0], cand_upper[0]
                        served_by = "candidate"

        # 4. Advance.
        core.advance()
        return StepResult(
            step=s,
            observed=filled,
            mask=valid,
            prediction=prediction,
            lower=lower,
            upper=upper,
            coverage=self.monitor.coverage,
            events=events,
            served_by=served_by,
        )

    def run(
        self, feed: Iterable[np.ndarray], max_steps: Optional[int] = None
    ) -> List[StepResult]:
        """Drive :meth:`observe` over a feed; returns the per-step results."""
        results: List[StepResult] = []
        for index, observation in enumerate(feed):
            if max_steps is not None and index >= max_steps:
                break
            results.append(self.observe(observation))
        return results

    # ------------------------------------------------------------------ #
    # Refits and their publication (all on the loop's thread but _refit)
    # ------------------------------------------------------------------ #
    def _refit(self, region: str, recents: Dict[str, np.ndarray]) -> Any:
        """The coordinator's refit: ``refit_fn`` on the stream's recent rows."""
        if self.refit_fn is None:
            return None
        return self.refit_fn(recents[region])

    def _log(
        self, kind: str, s: int, value: float = 0.0, threshold: float = 0.0, message: str = ""
    ) -> DriftEvent:
        return self.event_log.append(
            DriftEvent(kind=kind, step=s, value=float(value), threshold=float(threshold),
                       message=message)
        )

    def _adopt(self, model: Any, error: Optional[Exception], s: int) -> List[DriftEvent]:
        """Adopt one finished refit: publish it now or stage it for a trial."""
        if error is None and model is not None:
            try:
                _predictor(model)
            except TypeError as bad:
                error = bad
        if error is not None:
            return [self._log(
                "recalibration_failed", s, message=f"{type(error).__name__}: {error}"
            )]
        # Pre-drift scores only slow adaptation down; refill the
        # nonconformity buffers from post-drift data.
        self.core.reset_scores(keep_alpha=True)
        events: List[DriftEvent] = []
        note = ""
        if model is not None:
            policy = self.coordinator.policy
            name, version = self.coordinator.next_candidate_name(self.version_prefix)
            if self.server is not None:
                self.server.deploy(name, model, version=version)
            if policy.mode == "immediate":
                events.extend(self._publish(model, name, version, s))
                note = ", model refitted"
            else:
                events.append(self._stage(model, name, version, s))
                note = ", candidate staged"
        refits = self.coordinator.get_state()["refit_count"]
        events.append(self._log(
            "recalibrated", s, value=refits, message="conformal state rebuilt" + note
        ))
        return events

    def _stage(self, model: Any, name: str, version: str, s: int) -> DriftEvent:
        """Open a shadow/canary trial of a deployed (or local) candidate."""
        policy = self.coordinator.policy
        self.coordinator.trials[self.REGION] = Trial(
            self.REGION,
            name,
            version,
            policy,
            nominal=1.0 - self.calibrator.config.significance,
            horizon=self.horizon,
            start_steps={self.REGION: self.core.step},
            model=model,
        )
        if self.server is not None:
            # Expose the candidate to external traffic for the trial: shadow
            # mirrors every request, canary serves its weighted share.  The
            # caller's router is restored when the trial ends.
            from repro.serving.router import ShadowRouter, TrafficSplitRouter

            self._router = self.server.router
            if policy.mode == "shadow":
                self.server.router = ShadowRouter(shadows=[name], inner=self._router)
            else:
                # The non-canary share keeps the caller's routing intact.
                self.server.router = TrafficSplitRouter(
                    {None: 1.0 - policy.canary_fraction, name: policy.canary_fraction},
                    inner=self._router,
                )
        return self._log(
            "candidate_staged", s,
            value=self.coordinator.get_state()["refit_count"],
            message=(
                f"{policy.mode} trial of {name} ({version}), "
                f"verdict after {policy.eval_steps} scored steps"
            ),
        )

    def _publish(self, model: Any, name: str, version: str, s: int) -> List[DriftEvent]:
        """Make ``model`` the incumbent: the loop's predictor and, with a
        server, its default route (keeping one displaced generation)."""
        # Adopt the model wholesale so save() persists the one serving.
        self.forecaster = model
        self._predict = _predictor(model)
        if self.server is None:
            return []
        previous = self.server.promote(name)
        stale, self._displaced = self._displaced, previous
        if stale not in (None, name, previous) and stale in self.server.pool:
            # Older generations would otherwise accumulate in the pool
            # forever on a long drifting stream.
            self.server.undeploy(stale)
        return [self._log(
            "model_swapped", s,
            value=self.coordinator.get_state()["refit_count"],
            message=f"{previous} -> {name} ({version})",
        )]

    def _end_trial(self, trial: Trial, promote: bool, s: int) -> List[DriftEvent]:
        """Close the trial: restore the caller's router, then promote or retire."""
        self.coordinator.trials.pop(self.REGION, None)
        if self.server is not None:
            # Restore the router before touching the route table so no new
            # request targets a retiring candidate.
            self.server.router, self._router = self._router, None
        if promote:
            return self._publish(trial.model, trial.name, trial.version, s)
        if self.server is not None and trial.name in self.server.pool:
            # Never promoted, so retiring it cannot touch the default route;
            # queued requests routed at it fall back, zero drops.
            self.server.undeploy(trial.name)
        return []

    def _finish_trial(
        self, trial: Trial, decision: Dict[str, Any], s: int
    ) -> List[DriftEvent]:
        """Promote or reject the trialed candidate; returns the logged events."""
        promote = bool(decision["promote"])
        events = self._end_trial(trial, promote, s)
        if promote:
            # The winner's residual scale differs from the incumbent's.
            self.core.reset_scores(keep_alpha=True)
        events.append(self._log(
            "candidate_promoted" if promote else "candidate_rejected", s,
            value=decision["candidate_mae"],
            threshold=decision["incumbent_mae"],
            message=f"{trial.name}: {Trial.summary(decision)}",
        ))
        return events

    def _abort_trial(self, trial: Trial, error: Exception, s: int) -> List[DriftEvent]:
        """Fail a candidate that cannot predict; the incumbent keeps serving."""
        self._end_trial(trial, False, s)
        return [self._log(
            "candidate_failed", s,
            message=(
                f"{trial.name} failed to predict and was retired: "
                f"{type(error).__name__}: {error}"
            ),
        )]

    def join_refit(self, timeout: Optional[float] = 30.0) -> None:
        """Block until any in-flight background refit has finished.

        The finished refit is adopted by the next :meth:`observe`.
        """
        self.coordinator.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """One metrics-endpoint-ready dict: rolling metrics, drift, serving.

        The single-stream analogue of
        :meth:`~repro.fleet.StreamFleet.snapshot`: the monitor's rolling
        PICP/MPIW/MAE/RMSE/Winkler bundle, stream progress, refit/trial
        state, the drift-event log as JSON records, and (when a server is
        attached) its serving stats.
        """
        trial = self.trial
        snap: Dict[str, Any] = {
            "step": self.step,
            "warmed_up": self.warmed_up,
            "refit_count": self.coordinator.get_state()["refit_count"],
            "trial": repr(trial) if trial is not None else None,
            "metrics": self.monitor.snapshot(),
            "events": self.event_log.to_records(),
        }
        if self.server is not None and hasattr(self.server, "stats"):
            snap["server"] = self.server.stats
        return snap

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    MODEL_SUBDIR = "model"
    ACI_SUBDIR = "aci"
    STREAM_SUBDIR = "stream"

    #: On-disk format revision of the runner-state checkpoint: the full
    #: :class:`StreamCore` state plus the refit coordinator's state (cooldown
    #: clock, refit count, partial quorum).  :meth:`load` reads this version
    #: only; the older versions 1 and 2 are rejected.
    STREAM_FORMAT_VERSION = 3

    def save(self, directory: Union[str, Path]) -> Path:
        """Persist the full stream state (always) and the model (if it can).

        Everything the core tracks online — the ACI calibration buffers, the
        rolling :class:`StreamingMonitor` windows, the drift detectors'
        accumulated evidence, the event log and the history / pending /
        recent ledgers — round-trips bit-identically through the shared
        ``get_state`` / ``set_state`` array protocol, and the refit
        coordinator's cooldown clock, refit count and partial quorum ride
        along, so a restarted serving process resumes the stream exactly
        where it stopped: warm window, outstanding forecasts still
        scoreable, detectors still mid-debounce, cooldown still running.
        Forecasters exposing ``save`` (the :class:`~repro.api.Forecaster`
        facade) are stored alongside so :meth:`load` restores the entire
        streaming system.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        from repro.utils.serialization import save_checkpoint

        # The calibrator is additionally stored under aci/ in its own
        # directory format: load() needs it to construct the runner before
        # the core state (which embeds the same buffers) is restored.
        self.calibrator.save(directory / self.ACI_SUBDIR)
        core_state = self.core.get_state()
        stream_meta = {
            "kind": "stream",
            "format_version": self.STREAM_FORMAT_VERSION,
            "step": self.core.step,
            "coordinator": self.coordinator.get_state(),
            "core": core_state["meta"],
            "events": self.event_log.to_records(),
        }
        save_checkpoint(
            directory / self.STREAM_SUBDIR, stream_meta, core_state["arrays"]
        )
        saver = getattr(self.forecaster, "save", None)
        if callable(saver):
            saver(directory / self.MODEL_SUBDIR)
        return directory

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        forecaster: Optional[Any] = None,
        **kwargs: Any,
    ) -> "StreamingForecaster":
        """Rebuild a streaming forecaster from a :meth:`save` directory.

        ``forecaster`` overrides (or substitutes, for non-checkpointable
        predictors) the stored model checkpoint.  The stream state (core and
        refit coordinator) is restored when the directory holds it, and must
        be :attr:`STREAM_FORMAT_VERSION`; a directory without it (the
        calibrator and the model only) starts with fresh monitors.
        """
        directory = Path(directory)
        calibrator = AdaptiveConformalCalibrator.load(directory / cls.ACI_SUBDIR)
        if forecaster is None:
            model_dir = directory / cls.MODEL_SUBDIR
            if not model_dir.exists():
                raise FileNotFoundError(
                    f"{directory} holds no model checkpoint; pass forecaster= explicitly"
                )
            from repro.api import Forecaster

            forecaster = Forecaster.load(model_dir)
        runner = cls(forecaster, calibrator=calibrator, **kwargs)
        stream_dir = directory / cls.STREAM_SUBDIR
        if stream_dir.exists():
            from repro.utils.serialization import load_checkpoint

            meta, arrays = load_checkpoint(stream_dir)
            version = meta.get("format_version")
            if version != cls.STREAM_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported stream checkpoint format {version!r} "
                    f"(this build reads version {cls.STREAM_FORMAT_VERSION})"
                )
            # The core state embeds everything: calibration, monitor,
            # detectors, event log, step and the warm ledgers.
            runner.core.set_state({"meta": meta["core"], "arrays": arrays})
            runner.coordinator.set_state(meta["coordinator"])
        return runner

    def __repr__(self) -> str:
        return (
            f"StreamingForecaster(history={self.history}, horizon={self.horizon}, "
            f"step={self.core.step}, mode={self.calibrator.config.mode!r}, "
            f"events={len(self.event_log)})"
        )
