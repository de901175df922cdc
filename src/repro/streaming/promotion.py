"""One refit path for every streaming loop: policy, candidate trial, coordinator.

A drift-triggered refit is how a live stream's model keeps up with the data,
but publishing one blindly is a gamble: a refit on a short, noisy post-drift
window can easily be *worse* than the incumbent.  Both loops — the
one-stream :class:`~repro.streaming.runner.StreamingForecaster` and the
many-stream :class:`~repro.fleet.StreamFleet` — run the machinery in this
module, and a single stream is simply a one-stream region with quorum 1:

* :class:`RefitPolicy` — when a region refits and how the result is
  published;
* :class:`RefitCoordinator` — drift firings pooled per region (a quorum of
  distinct streams within a window), the cooldown clock, the loop-wide
  refit budget, the refit threads and the open-trial registry;
* :class:`Trial` — one candidate scored against the incumbent on identical
  live observations across a region's streams, with canary admission and a
  promote/reject verdict.

Publication modes:

``"immediate"``
    The refit replaces the incumbent as soon as the loop adopts it.
``"shadow"``
    The candidate forecasts every live window next to the incumbent, both
    are scored on the same resolved observations in twin rolling monitors,
    and only the incumbent's forecasts are emitted.  After ``eval_steps``
    scored stream-steps the candidate is promoted iff its rolling
    MAE/coverage beat the incumbent's; otherwise it is discarded.
``"canary"``
    Like shadow, but the candidate also *serves* a ``canary_fraction`` share
    of the emitted forecasts during the trial — real exposure, bounded blast
    radius.

Only the refit itself may leave the loop's thread (``background=True``);
the coordinator queues its result, and the loop adopts it — stages the
trial, re-points routes — at its next step.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.streaming.monitor import StreamingMonitor
from repro.streaming.shard import ResolvedStep

#: Signature of a refit: region name + per-stream recent observations.
RefitFn = Callable[[str, Dict[str, np.ndarray]], Any]

#: Recognized publication modes.
REFIT_MODES = ("immediate", "shadow", "canary")


@dataclass
class RefitPolicy:
    """When refits launch and how their candidates are published.

    Parameters
    ----------
    quorum:
        Distinct drifted streams a region needs within ``window`` steps
        before one coordinated refit launches (1 for a single stream).
    window:
        Step window the quorum is counted over.
    cooldown:
        Minimum steps between refits of the same region.
    max_concurrent:
        The refit-storm budget: loop-wide cap on simultaneously running
        refits plus open trials.
    mode:
        One of :data:`REFIT_MODES`.
    eval_steps:
        Scored *stream-steps* (one per stream per resolved step, summed
        over the region) before the trial verdict.
    canary_fraction:
        Share of the region's emitted forecasts the candidate serves during
        a ``"canary"`` trial.
    mae_tolerance:
        The candidate is promoted only if its rolling MAE is at most
        ``incumbent_mae * (1 + mae_tolerance)``; negative values demand a
        strict improvement margin.
    coverage_tolerance:
        Allowed extra distance (in coverage fraction) between the
        candidate's rolling coverage and the nominal level, relative to the
        incumbent's distance.
    metric_window:
        Rolling-window length (in scored steps) of the trial monitors.
    background:
        Run refits on daemon threads (default) or synchronously inside the
        triggering step.
    """

    quorum: int = 3
    window: int = 50
    cooldown: int = 200
    max_concurrent: int = 1
    mode: str = "shadow"
    eval_steps: int = 60
    canary_fraction: float = 0.25
    mae_tolerance: float = 0.0
    coverage_tolerance: float = 0.02
    metric_window: int = 200
    background: bool = True

    def __post_init__(self) -> None:
        if self.quorum < 1 or self.window < 1 or self.eval_steps < 1:
            raise ValueError("quorum, window and eval_steps must be >= 1")
        if self.cooldown < 0 or self.max_concurrent < 1:
            raise ValueError("cooldown must be >= 0 and max_concurrent >= 1")
        if self.mode not in REFIT_MODES:
            raise ValueError(f"mode must be one of {REFIT_MODES}, got {self.mode!r}")
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must lie in (0, 1]")
        if self.coverage_tolerance < 0.0 or self.metric_window < 1:
            raise ValueError("coverage_tolerance must be >= 0 and metric_window >= 1")


class Trial:
    """Live candidate-vs-incumbent evaluation across one region's streams.

    The loop records every candidate forecast per stream (made on exactly
    the windows the incumbent forecast, from the step the trial opened) and
    resolves both sides against the same observations; the incumbent is
    scored only on forecasts made from ``start_steps[stream]`` on, so the
    comparison always covers identical forecast sets.  The trial is opened,
    fed and settled on its loop's thread.  ``model`` is the candidate itself,
    for a loop that calls it directly instead of through its server
    deployment ``name``.
    """

    def __init__(
        self,
        region: str,
        name: str,
        version: str,
        policy: RefitPolicy,
        nominal: float,
        horizon: int,
        start_steps: Dict[str, int],
        model: Any = None,
    ) -> None:
        self.region = str(region)
        self.name = str(name)
        self.version = str(version)
        self.policy = policy
        self.nominal = float(nominal)
        self.horizon = int(horizon)
        self.start_steps = dict(start_steps)
        self.model = model
        significance = 1.0 - self.nominal
        self.candidate_monitor = StreamingMonitor(
            window=policy.metric_window, significance=significance
        )
        self.incumbent_monitor = StreamingMonitor(
            window=policy.metric_window, significance=significance
        )
        self._pending: Dict[str, deque] = {
            stream: deque(maxlen=self.horizon) for stream in self.start_steps
        }
        self._candidate_scored = 0
        self._incumbent_scored = 0
        self._canary_total = 0
        self._canary_served = 0

    @property
    def streams(self) -> List[str]:
        return list(self.start_steps)

    def serve_candidate_now(self) -> bool:
        """Deficit-counter canary admission for one emitted forecast."""
        if self.policy.mode != "canary":
            return False
        self._canary_total += 1
        if self._canary_served < self.policy.canary_fraction * self._canary_total:
            self._canary_served += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def record(
        self,
        stream: str,
        step: int,
        mean: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> None:
        """Remember one candidate forecast ``(horizon, nodes)`` for a stream."""
        pending = self._pending.get(stream)
        if pending is not None:
            pending.append({"step": int(step), "mean": mean, "lower": lower, "upper": upper})

    def resolve(
        self, stream: str, step: int, observation: np.ndarray, valid: np.ndarray
    ) -> None:
        """Score the candidate forecasts this stream's observation completes."""
        pending = self._pending.get(stream)
        if pending is None:
            return
        masked = np.where(valid, observation, np.nan)
        targets, means, lowers, uppers = [], [], [], []
        for entry in pending:
            h = step - entry["step"] - 1
            if not 0 <= h < self.horizon:
                continue
            targets.append(masked)
            means.append(entry["mean"][h])
            lowers.append(entry["lower"][h])
            uppers.append(entry["upper"][h])
        if targets:
            scored = self.candidate_monitor.update(
                np.stack(targets), np.stack(means), np.stack(lowers), np.stack(uppers)
            )
            if scored is not None:
                self._candidate_scored += 1

    def observe_incumbent(self, stream: str, resolved: ResolvedStep) -> None:
        """Score the incumbent's resolutions made from post-start forecasts."""
        start = self.start_steps.get(stream)
        if start is None or resolved.steps is None:
            return
        keep = resolved.steps >= start
        if not keep.any():
            return
        scored = self.incumbent_monitor.update(
            resolved.target[keep],
            resolved.mean[keep],
            resolved.lower[keep],
            resolved.upper[keep],
        )
        if scored is not None:
            self._incumbent_scored += 1

    # ------------------------------------------------------------------ #
    # Verdict
    # ------------------------------------------------------------------ #
    @property
    def scored_steps(self) -> int:
        """Scored stream-steps both sides have accumulated.

        Counted on the trial itself, not via the monitors' ring counts —
        those cap at ``metric_window``, which would stall any trial with
        ``eval_steps > metric_window`` forever.
        """
        return min(self._candidate_scored, self._incumbent_scored)

    def verdict(self) -> Optional[Dict[str, Any]]:
        """Promote/reject decision, or ``None`` while the trial still runs.

        The candidate must beat the incumbent on rolling MAE (within
        ``mae_tolerance``) *and* sit no further from nominal coverage than
        the incumbent plus ``coverage_tolerance``.
        """
        if self.scored_steps < self.policy.eval_steps:
            return None
        candidate = self.candidate_monitor.snapshot()
        incumbent = self.incumbent_monitor.snapshot()
        cand_mae, inc_mae = candidate["mae"], incumbent["mae"]
        cand_gap = abs(candidate["coverage"] / 100.0 - self.nominal)
        inc_gap = abs(incumbent["coverage"] / 100.0 - self.nominal)
        mae_ok = np.isfinite(cand_mae) and (
            cand_mae <= inc_mae * (1.0 + self.policy.mae_tolerance)
        )
        coverage_ok = cand_gap <= inc_gap + self.policy.coverage_tolerance
        return {
            "promote": bool(mae_ok and coverage_ok),
            "candidate_mae": float(cand_mae),
            "incumbent_mae": float(inc_mae),
            "candidate_coverage": float(candidate["coverage"]),
            "incumbent_coverage": float(incumbent["coverage"]),
            "scored_steps": int(self.scored_steps),
        }

    @staticmethod
    def summary(decision: Dict[str, Any]) -> str:
        """One-line account of a verdict, for the loops' event logs."""
        return (
            f"MAE {decision['candidate_mae']:.4g} vs incumbent "
            f"{decision['incumbent_mae']:.4g}, coverage "
            f"{decision['candidate_coverage']:.1f}% vs "
            f"{decision['incumbent_coverage']:.1f}% over "
            f"{decision['scored_steps']} scored stream-steps"
        )

    def __repr__(self) -> str:
        return (
            f"Trial({self.region!r}, candidate={self.name!r}, "
            f"mode={self.policy.mode!r}, scored={self.scored_steps}/{self.policy.eval_steps})"
        )


class RefitCoordinator:
    """Quorum-triggered, budgeted refit launching plus open-trial registry.

    The coordinator owns the bookkeeping; the loop owns the serving side
    (deploying candidates, opening trials, re-pointing routes), so that
    everything touching the model or the server happens on the loop's
    thread.
    """

    #: Runtime-only state the checkpoint legitimately drops: in-flight refit
    #: threads cannot cross a process boundary, and their undrained results
    #: belong to the killed process.  (Open ``trials`` are dropped too: the
    #: restored loop starts without candidates.)
    _CHECKPOINT_EXEMPT = ("_inflight", "_finished")

    def __init__(self, refit_fn: RefitFn, policy: Optional[RefitPolicy] = None) -> None:
        if not callable(refit_fn):
            raise TypeError("refit_fn must be callable: refit_fn(region, recents) -> model")
        self.refit_fn = refit_fn
        self.policy = policy if policy is not None else RefitPolicy()
        self.trials: Dict[str, Trial] = {}
        self._lock = threading.Lock()
        self._drifted: Dict[str, Dict[str, int]] = {}       # region -> stream -> step
        self._last_trigger: Dict[str, int] = {}
        self._inflight: Dict[str, threading.Thread] = {}
        self._finished: List[Tuple[str, Any, Optional[Exception]]] = []
        self._refit_count = 0
        self._triggers = 0

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> int:
        """Refits in flight or awaiting staging, plus open trials.

        This is the budgeted quantity: a refit stays "active" from launch
        until its candidate either finishes a trial or fails — including the
        gap between the background thread finishing and the loop draining
        :meth:`take_finished`, so a fast refit cannot slip a second region
        past ``max_concurrent`` within one step.
        """
        with self._lock:
            inflight = sum(1 for t in self._inflight.values() if t.is_alive())
            pending = len(self._finished)
        return inflight + pending + len(self.trials)

    def note_drift(self, region: Optional[str], stream: str, step: int) -> None:
        """Record one stream's drift firing for quorum counting."""
        if region is None:
            return
        with self._lock:
            self._drifted.setdefault(region, {})[stream] = int(step)

    def drifted_streams(self, region: str, step: int) -> List[str]:
        """Streams of ``region`` that drifted within the quorum window."""
        horizon = step - self.policy.window
        with self._lock:
            return [
                stream
                for stream, at in self._drifted.get(region, {}).items()
                if at > horizon
            ]

    # ------------------------------------------------------------------ #
    def maybe_trigger(
        self, step: int, recents: Callable[[str], Dict[str, np.ndarray]]
    ) -> List[str]:
        """Launch refits for every region at quorum; returns them.

        ``recents`` maps a region to its per-stream recent-observation
        arrays (fetched lazily, only for regions that actually trigger).
        The budget is re-checked per region, so one step can never launch
        more refits than ``max_concurrent`` allows.
        """
        policy = self.policy
        triggered: List[str] = []
        with self._lock:
            regions = list(self._drifted)
        for region in regions:
            if self.active >= policy.max_concurrent:
                break
            if region in self.trials:
                continue
            with self._lock:
                thread = self._inflight.get(region)
                if thread is not None and thread.is_alive():
                    continue
                last = self._last_trigger.get(region)
            if last is not None and step - last < policy.cooldown:
                continue
            if len(self.drifted_streams(region, step)) < policy.quorum:
                continue
            self._launch(region, step, recents(region))
            triggered.append(region)
        return triggered

    def _launch(self, region: str, step: int, recent: Dict[str, np.ndarray]) -> None:
        with self._lock:
            self._last_trigger[region] = int(step)
            self._drifted[region] = {}
            self._triggers += 1

        def work() -> None:
            try:
                model = self.refit_fn(region, recent)
            except Exception as error:  # surfaced via take_finished
                with self._lock:
                    self._finished.append((region, None, error))
                return
            with self._lock:
                self._finished.append((region, model, None))

        if self.policy.background:
            thread = threading.Thread(target=work, name=f"repro-refit-{region}", daemon=True)
            with self._lock:
                self._inflight[region] = thread
            thread.start()
        else:
            work()

    def take_finished(self) -> List[Tuple[str, Any, Optional[Exception]]]:
        """Drain completed refits as ``(region, model, error)`` records."""
        with self._lock:
            finished, self._finished = self._finished, []
            for region, _, _ in finished:
                self._inflight.pop(region, None)
        return finished

    def next_candidate_name(self, stem: str) -> Tuple[str, str]:
        """Allocate a candidate's deployment name and version under ``stem``."""
        with self._lock:
            self._refit_count += 1
            count = self._refit_count
        return f"{stem}-cand{count}", f"{stem}-recal{count}"

    def join(self, timeout: Optional[float] = 30.0) -> None:
        """Block until all in-flight background refits have finished."""
        with self._lock:
            threads = list(self._inflight.values())
        for thread in threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            inflight = [r for r, t in self._inflight.items() if t.is_alive()]
            return {
                "triggers": self._triggers,
                "refits_completed": self._refit_count,
                "inflight_regions": inflight,
                "open_trials": {region: repr(trial) for region, trial in self.trials.items()},
                "last_trigger": dict(self._last_trigger),
            }

    def get_state(self) -> Dict[str, Any]:
        """JSON-ready counters, cooldown clock and quorum evidence.

        ``drifted`` carries the partial quorum: without it a loop restored
        mid-episode forgets which streams already fired, and a region that
        was one drift short of quorum at the kill never refits after the
        restore.
        """
        with self._lock:
            return {
                "refit_count": self._refit_count,
                "triggers": self._triggers,
                "last_trigger": {k: int(v) for k, v in self._last_trigger.items()},
                "drifted": {
                    region: {stream: int(step) for stream, step in streams.items()}
                    for region, streams in self._drifted.items()
                },
            }

    def set_state(self, state: Dict[str, Any]) -> "RefitCoordinator":
        with self._lock:
            self._refit_count = int(state.get("refit_count", 0))
            self._triggers = int(state.get("triggers", 0))
            self._last_trigger = {
                str(k): int(v) for k, v in (state.get("last_trigger") or {}).items()
            }
            self._drifted = {
                str(region): {str(s): int(at) for s, at in (streams or {}).items()}
                for region, streams in (state.get("drifted") or {}).items()
            }
        return self

    def __repr__(self) -> str:
        return (
            f"RefitCoordinator(active={self.active}, "
            f"budget={self.policy.max_concurrent}, triggers={self._triggers})"
        )
