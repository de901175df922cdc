"""Drift detection over the streaming metric signals.

Two complementary detectors watch the online loop:

* :class:`CoverageBreachDetector` — a *calibration* alarm: when the rolling
  empirical coverage stays below the nominal level minus a tolerance for
  ``patience`` consecutive scored steps, the conformal state no longer
  matches the stream.
* :class:`ErrorCusumDetector` — an *accuracy* alarm: a one-sided CUSUM on
  standardized absolute errors (baseline mean/std estimated online during a
  warm-up phase, Welford's algorithm, then frozen) accumulates evidence of a
  sustained error-level increase and fires when the statistic crosses the
  decision threshold.

Both emit typed :class:`DriftEvent` records and re-arm after a firing, so a
long-lived stream produces a clean, timestamped event log rather than a
boolean flag.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs.events import log_event
from repro.streaming.monitor import RollingStat

#: Event kinds the built-in detectors emit: the spatial aggregator's default
#: ``watch_kinds``.  Refit quorum needs no list: the fleet and the solo
#: runner count every detector event as drift, whatever its kind.
DRIFT_KINDS = ("coverage_breach", "error_cusum")


@dataclass(frozen=True)
class DriftEvent:
    """One detector firing (or lifecycle notification) on the stream."""

    kind: str          # "coverage_breach" | "error_cusum" | runner lifecycle kinds
    step: int          # stream step index at which the event fired
    value: float       # the statistic that crossed the threshold
    threshold: float   # the decision threshold it crossed
    message: str = ""

    def __str__(self) -> str:
        text = f"[step {self.step}] {self.kind}: value={self.value:.4g} threshold={self.threshold:.4g}"
        return f"{text} — {self.message}" if self.message else text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (float fields stay Python floats)."""
        record = asdict(self)
        record["step"] = int(record["step"])
        record["value"] = float(record["value"])
        record["threshold"] = float(record["threshold"])
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "DriftEvent":
        return cls(
            kind=str(record["kind"]),
            step=int(record["step"]),
            value=float(record["value"]),
            threshold=float(record["threshold"]),
            message=str(record.get("message", "")),
        )


class CoverageBreachDetector:
    """Fires when rolling coverage stays below ``nominal - tolerance``.

    Parameters
    ----------
    nominal:
        Target coverage as a fraction (0.95 for 95% intervals).
    tolerance:
        Allowed slack below nominal before a step counts as breached.
    window:
        Rolling window (in scored steps) the coverage is estimated over.
    patience:
        Consecutive breached steps required before the event fires —
        a debounce so single noisy steps cannot trigger recalibration.
    warmup:
        Scored steps to observe before breaches start counting.
    """

    kind = "coverage_breach"
    signal = "coverage"

    def __init__(
        self,
        nominal: float = 0.95,
        tolerance: float = 0.05,
        window: int = 100,
        patience: int = 20,
        warmup: int = 50,
    ) -> None:
        if not 0.0 < nominal < 1.0:
            raise ValueError("nominal must lie in (0, 1)")
        if tolerance <= 0.0 or patience < 1:
            raise ValueError("tolerance must be positive and patience >= 1")
        self.nominal = float(nominal)
        self.tolerance = float(tolerance)
        self.patience = int(patience)
        self.warmup = int(warmup)
        self._coverage = RollingStat(window)
        self._scored = 0
        self._breached_steps = 0

    def update(self, step: int, covered_fraction: Optional[float]) -> Optional[DriftEvent]:
        """Fold one step's covered fraction in; returns an event if it fires."""
        if covered_fraction is None:
            return None
        self._coverage.push(float(covered_fraction))
        # Warm up on total scored steps, not the ring count: the ring caps at
        # ``window``, so a warmup longer than the window would otherwise
        # disarm the detector forever.
        self._scored += 1
        if self._scored < max(self.warmup, 1):
            return None
        coverage = self._coverage.mean
        threshold = self.nominal - self.tolerance
        if coverage < threshold:
            self._breached_steps += 1
        else:
            self._breached_steps = 0
        if self._breached_steps >= self.patience:
            self._breached_steps = 0
            return DriftEvent(
                kind=self.kind,
                step=int(step),
                value=coverage,
                threshold=threshold,
                message=(
                    f"rolling coverage {coverage * 100.0:.1f}% stayed below "
                    f"{threshold * 100.0:.1f}% for {self.patience} steps"
                ),
            )
        return None

    def reset(self) -> None:
        self._coverage.reset()
        self._scored = 0
        self._breached_steps = 0

    # ------------------------------------------------------------------ #
    # State protocol (folded into StreamCore checkpoints)
    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        """Rolling-coverage ring + breach counters as ``{"meta", "arrays"}``.

        A detector mid-way through its ``patience`` debounce carries real
        evidence of an unfolding breach; checkpointing it (rather than
        re-arming from zero) is what lets a kill-and-restore mid-drift fire
        the same event at the same step as an uninterrupted run.
        """
        return {
            "meta": {
                "kind": self.kind,
                "nominal": self.nominal,
                "tolerance": self.tolerance,
                "window": self._coverage.window,
                "patience": self.patience,
                "warmup": self.warmup,
                "scored": self._scored,
                "breached_steps": self._breached_steps,
            },
            "arrays": {
                f"coverage.{key}": value
                for key, value in self._coverage.get_state().items()
            },
        }

    def set_state(self, state: Dict[str, Any]) -> "CoverageBreachDetector":
        """Restore a :meth:`get_state` snapshot (bit-identical round trip)."""
        meta = state["meta"]
        if meta.get("kind") != self.kind:
            raise ValueError(
                f"state was saved by {meta.get('kind')!r}, not a {self.kind} detector"
            )
        self.nominal = float(meta["nominal"])
        self.tolerance = float(meta["tolerance"])
        self.patience = int(meta["patience"])
        self.warmup = int(meta["warmup"])
        if self._coverage.window != int(meta["window"]):
            self._coverage = RollingStat(int(meta["window"]))
        self._coverage.set_state(
            {
                key: state["arrays"][f"coverage.{key}"]
                for key in ("values", "pos", "count", "sum")
            }
        )
        self._scored = int(meta["scored"])
        self._breached_steps = int(meta["breached_steps"])
        return self


class ErrorCusumDetector:
    """One-sided CUSUM on standardized absolute forecast errors.

    During the first ``warmup`` updates the detector estimates the baseline
    error mean and standard deviation with Welford's online algorithm; the
    baseline is then frozen and each subsequent step contributes
    ``z_t = (err_t - mean) / std`` to the statistic
    ``S_t = max(0, S_{t-1} + z_t - slack)``.  Crossing ``threshold`` fires a
    :class:`DriftEvent` and resets ``S`` (the baseline stays frozen, so a
    persistent shift keeps re-firing until the model is recalibrated).
    """

    kind = "error_cusum"
    signal = "abs_error"

    def __init__(self, slack: float = 0.5, threshold: float = 8.0, warmup: int = 100) -> None:
        if threshold <= 0.0 or warmup < 2:
            raise ValueError("threshold must be positive and warmup >= 2")
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.warmup = int(warmup)
        self.statistic = 0.0
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def baseline(self) -> tuple:
        """Estimated ``(mean, std)`` of the warm-up error level."""
        if self._n < 2:
            return (float("nan"), float("nan"))
        return (self._mean, float(np.sqrt(self._m2 / (self._n - 1))))

    def update(self, step: int, abs_error: Optional[float]) -> Optional[DriftEvent]:
        """Fold one step's mean absolute error in; returns an event if it fires."""
        if abs_error is None or not np.isfinite(abs_error):
            return None
        error = float(abs_error)
        if self._n < self.warmup:
            # Welford baseline estimation.
            self._n += 1
            delta = error - self._mean
            self._mean += delta / self._n
            self._m2 += delta * (error - self._mean)
            return None
        _, std = self.baseline
        if not np.isfinite(std) or std <= 1e-12:
            std = max(abs(self._mean), 1e-12)
        z = (error - self._mean) / std
        self.statistic = max(0.0, self.statistic + z - self.slack)
        if self.statistic > self.threshold:
            value = self.statistic
            self.statistic = 0.0
            return DriftEvent(
                kind=self.kind,
                step=int(step),
                value=value,
                threshold=self.threshold,
                message=(
                    f"error CUSUM {value:.2f} crossed {self.threshold:.2f} "
                    f"(baseline MAE {self._mean:.3f} ± {std:.3f})"
                ),
            )
        return None

    def reset(self, keep_baseline: bool = True) -> None:
        self.statistic = 0.0
        if not keep_baseline:
            self._n = 0
            self._mean = 0.0
            self._m2 = 0.0

    # ------------------------------------------------------------------ #
    # State protocol (folded into StreamCore checkpoints)
    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        """CUSUM statistic + frozen Welford baseline as ``{"meta", "arrays"}``.

        The statistic is the accumulated evidence of an error-level shift;
        dropping it on restore (the pre-fix behaviour) silently discards
        however many standardized excess-error units the stream had already
        banked toward the decision threshold.
        """
        return {
            "meta": {
                "kind": self.kind,
                "slack": self.slack,
                "threshold": self.threshold,
                "warmup": self.warmup,
            },
            "arrays": {
                "statistic": np.array(self.statistic, dtype=np.float64),
                "n": np.array(self._n, dtype=np.int64),
                "mean": np.array(self._mean, dtype=np.float64),
                "m2": np.array(self._m2, dtype=np.float64),
            },
        }

    def set_state(self, state: Dict[str, Any]) -> "ErrorCusumDetector":
        """Restore a :meth:`get_state` snapshot (bit-identical round trip)."""
        meta = state["meta"]
        if meta.get("kind") != self.kind:
            raise ValueError(
                f"state was saved by {meta.get('kind')!r}, not a {self.kind} detector"
            )
        self.slack = float(meta["slack"])
        self.threshold = float(meta["threshold"])
        self.warmup = int(meta["warmup"])
        arrays = state["arrays"]
        self.statistic = float(arrays["statistic"])
        self._n = int(arrays["n"])
        self._mean = float(arrays["mean"])
        self._m2 = float(arrays["m2"])
        return self


@dataclass
class EventLog:
    """Append-only, thread-friendly record of stream events.

    ``counts`` holds the number of events per kind, counted as they are
    appended (and rebuilt by the constructor on restore), so the metrics
    readers never walk ``events``.
    """

    events: List[DriftEvent] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for event in self.events:
            self.counts[event.kind] = self.counts.get(event.kind, 0) + 1

    def append(self, event: DriftEvent) -> DriftEvent:
        self.events.append(event)
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        # Every detector firing and lifecycle notification funnels through
        # here, so one hook gives the structured log the full drift story
        # (restores rebuild via the constructor and do not re-emit).
        log_event(
            f"stream.{event.kind}",
            message=event.message,
            step=event.step,
            value=event.value,
            threshold=event.threshold,
        )
        return event

    def of_kind(self, kind: str) -> List[DriftEvent]:  # repro: noqa[unused/symbol] tests/streaming/test_runner.py
        return [event for event in self.events if event.kind == kind]

    def to_records(self) -> List[Dict[str, Any]]:
        """The full log as JSON-serializable records (oldest first)."""
        return [event.to_dict() for event in self.events]

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "EventLog":
        return cls(events=[DriftEvent.from_dict(record) for record in records])

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
