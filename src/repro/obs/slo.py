"""SLO engine: declarative objectives, burn-rate evaluation, alert lifecycle.

A :class:`SLOSpec` declares one service-level objective over sampled
metrics — availability ratios, latency/coverage bounds, zero-drop
counters — and the :class:`SLOEngine` evaluates every spec each tick with
the classic **multi-window burn-rate rule**: the fraction of the error
budget being consumed must exceed the threshold over *both* a long window
(statistical confidence) and a short window (fast reset once the incident
ends) before an alert moves.

The engine samples its own inputs.  Named *sources* (zero-argument
callables returning flat ``{metric: number}`` dicts: :func:`fleet_source`,
:func:`server_source`, :func:`gateway_source`) are polled once per
:meth:`SLOEngine.step`, and each poll becomes one ``(tick, {series: value})``
row.  The engine keeps only as many rows as its longest ``long_window``
reads, so memory stays bounded by what the objectives need however long
the service runs.  Non-finite values are dropped at the door: NaN warm-up
gauges never enter a window, so the burn rates (and the metric families
rendered from them) stay NaN-free.

Alert lifecycle is a deterministic state machine driven purely by tick
indices and sampled values — no wall clock, no RNG — so a fixed-seed chaos
scenario fires and resolves the same alerts at the same ticks every run::

    inactive ──breach──▶ pending ──for_ticks held──▶ firing
        ▲                   │                          │
        └──────recovered────┘          recovered──▶ resolved ──breach──▶ pending

``resolved`` is sticky (an alert that has fired and recovered displays as
resolved, not as never-fired) and every transition emits one structured
``slo.alert_*`` event via :func:`repro.obs.log_event`, carrying the active
trace ID — the gateway's ``GET /tail`` stream shows alerts move live.

Objective kinds, all reduced to a *bad fraction* over a window so one burn
rate formula (``bad_fraction / (1 - target)``) covers them:

* ``ratio`` — ``good`` / ``total`` cumulative counters (availability): the
  bad fraction is the windowed failure share of the windowed traffic;
* ``upper`` / ``lower`` — a gauge must stay below / above ``bound`` (p99
  latency, per-stream PICP coverage): the bad fraction is the share of
  window samples violating the bound;
* ``zero`` — a cumulative counter must not increase at all (drops): any
  windowed increase is a bad fraction of 1.0.

A counter's windowed increase is its last minus its first value in the
window, except that a series which appears mid-window counts up from 0:
per-kind event counters only exist once the first event of that kind
lands, and that first increment is the one a drop alert must see.

``metric`` may contain ``*`` wildcards (``fleet.stream.*.coverage``); the
engine expands them against the most recent row's series, one independent
alert per concrete series.
"""

from __future__ import annotations

import fnmatch
import math
import threading
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.events import log_event

#: A metrics source: zero-argument callable returning ``{metric: number}``.
MetricSource = Callable[[], Mapping[str, Any]]

#: One sample: the tick it was taken at and its finite ``{series: value}``.
Row = Tuple[int, Dict[str, float]]

__all__ = [
    "Alert",
    "SLOEngine",
    "SLOSpec",
    "default_slos",
    "fleet_source",
    "gateway_source",
    "server_source",
]

#: Alert lifecycle states, in escalation order.
ALERT_STATES = ("inactive", "pending", "firing", "resolved")

#: Spec kinds understood by the evaluator.
SLO_KINDS = ("ratio", "upper", "lower", "zero")

#: Alert severities; ``page`` degrades ``/healthz`` while firing.
SEVERITIES = ("ticket", "page")


def _counter_delta(rows: Sequence[Row], metric: str) -> float:
    """How much a cumulative counter rose over ``rows`` (one window).

    Last minus first value (0.0 with fewer than 2 points), except that a
    series which appears mid-window counts up from 0: rows sampled *before*
    its first point read as implicit zeros, so the 0 -> N appearance is an
    increase of N.  Only rows that exist without the metric count that way;
    a cumulative total already present in the first row ever sampled (an
    engine attached to a long-lived process) is a baseline, not a burst.
    """
    points = [(tick, row[metric]) for tick, row in rows if metric in row]
    if not points:
        return 0.0
    if rows[0][0] < points[0][0]:
        return points[-1][1]  # sprang into existence mid-window
    if len(points) < 2:
        return 0.0
    return points[-1][1] - points[0][1]


@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    Parameters
    ----------
    name:
        Unique objective name (``availability``, ``p99_latency``, ...).
    kind:
        ``ratio`` | ``upper`` | ``lower`` | ``zero`` (see module docstring).
    target:
        Objective as a good fraction in ``(0, 1)``; the error budget is
        ``1 - target``.  ``target=0.95`` tolerates 5 % bad samples.
    metric:
        Series name for ``upper`` / ``lower`` / ``zero`` kinds; ``*``
        wildcards expand against the latest sample's series, one alert per
        match.
    good, total:
        Cumulative counter names for the ``ratio`` kind.
    bound:
        The gauge bound for ``upper`` / ``lower`` kinds.
    long_window, short_window:
        Burn-rate windows in *samples* (one per engine step).  ``ratio``
        and ``zero`` specs read counter deltas, which need two samples, so
        their ``short_window`` must be at least 2.
    burn_threshold:
        Budget-consumption multiple both windows must exceed to breach;
        1.0 means "burning budget exactly at the sustainable rate".
    for_ticks:
        Ticks a breach must hold in ``pending`` before the alert fires
        (0 = fire on the evaluation that breaches).
    severity:
        ``ticket`` (default) or ``page`` — paging alerts degrade
        ``/healthz`` to 503 while firing.
    """

    name: str
    kind: str
    target: float = 0.99
    metric: Optional[str] = None
    good: Optional[str] = None
    total: Optional[str] = None
    bound: Optional[float] = None
    long_window: int = 20
    short_window: int = 5
    burn_threshold: float = 1.0
    for_ticks: int = 0
    severity: str = "ticket"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLOSpec needs a non-empty name")
        if self.kind not in SLO_KINDS:
            raise ValueError(f"kind must be one of {SLO_KINDS}, got {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must lie in (0, 1)")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")
        if self.long_window < 2 or not 1 <= self.short_window <= self.long_window:
            raise ValueError(
                "windows must satisfy 1 <= short_window <= long_window and "
                "long_window >= 2"
            )
        if self.kind in ("ratio", "zero") and self.short_window < 2:
            raise ValueError(
                f"{self.kind} specs need short_window >= 2: a counter's "
                "delta over one sample is always 0, so the spec could never "
                "breach"
            )
        if self.burn_threshold <= 0.0 or self.for_ticks < 0:
            raise ValueError("burn_threshold must be > 0 and for_ticks >= 0")
        if self.kind == "ratio":
            if not self.good or not self.total:
                raise ValueError("ratio specs need 'good' and 'total' counter names")
        else:
            if not self.metric:
                raise ValueError(f"{self.kind} specs need a 'metric' name")
        if self.kind in ("upper", "lower") and self.bound is None:
            raise ValueError(f"{self.kind} specs need a 'bound'")

    @property
    def budget(self) -> float:
        """The error budget: tolerable bad fraction."""
        return 1.0 - self.target

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "metric": self.metric,
            "good": self.good,
            "total": self.total,
            "bound": self.bound,
            "long_window": self.long_window,
            "short_window": self.short_window,
            "burn_threshold": self.burn_threshold,
            "for_ticks": self.for_ticks,
            "severity": self.severity,
            "description": self.description,
        }

    # ------------------------------------------------------------------ #
    # Evaluation primitives
    # ------------------------------------------------------------------ #
    def bad_fraction(self, rows: Sequence[Row], series: str, window: int) -> float:
        """The objective's bad fraction over the last ``window`` of ``rows``."""
        recent = rows[-window:]
        if self.kind == "ratio":
            total = _counter_delta(recent, self.total)
            if total <= 0.0:
                return 0.0  # no traffic burns no budget
            good = _counter_delta(recent, self.good)
            return min(max(1.0 - good / total, 0.0), 1.0)
        if self.kind == "zero":
            # The first event of a kind *creates* its series, and
            # _counter_delta reads that 0 -> N appearance as a breach.
            return 1.0 if _counter_delta(recent, series) > 0.0 else 0.0
        values = [row[series] for _, row in recent if series in row]
        if not values:
            return 0.0
        if self.kind == "upper":
            bad = sum(1 for value in values if value > self.bound)
        else:  # lower
            bad = sum(1 for value in values if value < self.bound)
        return bad / len(values)

    def burn_rate(self, rows: Sequence[Row], series: str, window: int) -> float:
        """Error-budget consumption multiple over ``window`` samples."""
        return self.bad_fraction(rows, series, window) / self.budget

    def expand(self, rows: Sequence[Row]) -> List[str]:
        """Concrete series names this spec currently evaluates over."""
        if self.kind == "ratio":
            return [self.name]  # counters are named explicitly; one series
        if "*" not in self.metric and "?" not in self.metric:
            return [self.metric]
        if not rows:
            return []
        return sorted(fnmatch.filter(rows[-1][1], self.metric))


class Alert:
    """Lifecycle state of one (spec, series) pair.

    Pure tick-index bookkeeping: :meth:`update` is called once per
    evaluation with the breach verdict and moves the state machine,
    returning the transition performed (``None`` when nothing moved).
    """

    __slots__ = (
        "spec", "series", "state", "pending_since", "fired_at",
        "resolved_at", "burn_long", "burn_short", "transitions",
    )

    def __init__(self, spec: SLOSpec, series: str) -> None:
        self.spec = spec
        self.series = series
        self.state = "inactive"
        self.pending_since: Optional[int] = None
        self.fired_at: Optional[int] = None
        self.resolved_at: Optional[int] = None
        self.burn_long = 0.0
        self.burn_short = 0.0
        self.transitions = 0

    def update(self, tick: int, breached: bool) -> Optional[str]:
        """Advance one evaluation; returns ``pending``/``firing``/``resolved``
        when the state moved this tick, else ``None``."""
        if breached:
            if self.state in ("inactive", "resolved"):
                self.state = "pending"
                self.pending_since = tick
                self.transitions += 1
                # for_ticks == 0 escalates in this same evaluation below,
                # still reporting the pending transition first via the engine.
                return "pending"
            if (
                self.state == "pending"
                and tick - self.pending_since >= self.spec.for_ticks
            ):
                self.state = "firing"
                self.fired_at = tick
                self.transitions += 1
                return "firing"
            return None
        if self.state == "pending":
            # A breach that never fired quietly stands down.
            self.state = "resolved" if self.resolved_at is not None else "inactive"
            self.pending_since = None
            self.transitions += 1
            return None
        if self.state == "firing":
            self.state = "resolved"
            self.resolved_at = tick
            self.transitions += 1
            return "resolved"
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.spec.name,
            "series": self.series,
            "severity": self.spec.severity,
            "state": self.state,
            "pending_since": self.pending_since,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
            "burn_threshold": self.spec.burn_threshold,
            "transitions": self.transitions,
        }


class SLOEngine:
    """Samples metric sources and evaluates :class:`SLOSpec` objectives.

    :meth:`step` is the whole per-tick API — poll every source into one
    row, evaluate every spec over the retained rows, move every alert, emit
    one ``slo.alert_*`` event per transition.  Everything is thread-safe
    (the gateway's read surfaces race the fleet's tick thread) and
    deterministic given the sampled values.

    The engine keeps the most recent rows up to the longest ``long_window``
    among its specs; :meth:`add_spec` deepens that store when a longer
    window arrives.  A spec added after sampling has started therefore
    reads only the rows kept so far, and its first evaluations see short
    windows until the store fills.
    """

    def __init__(
        self,
        specs: Sequence[SLOSpec] = (),
        transition_history: int = 256,
    ) -> None:
        if transition_history < 1:
            raise ValueError("transition_history must be >= 1")
        self._lock = threading.Lock()
        self._sources: Dict[str, MetricSource] = {}
        self._rows: deque = deque(maxlen=0)  # Row; depth = longest long_window
        self._source_errors = 0
        self._specs: Dict[str, SLOSpec] = {}
        self._alerts: Dict[Tuple[str, str], Alert] = {}
        self._transitions: deque = deque(maxlen=int(transition_history))
        self._transition_counts: Counter = Counter()  # (slo, state) -> count
        self._evaluations = 0
        self._last_tick = -1
        for spec in specs:
            self.add_spec(spec)

    # ------------------------------------------------------------------ #
    # Sources and specs
    # ------------------------------------------------------------------ #
    def add_source(self, name: str, source: MetricSource) -> None:
        """Register ``source`` under ``name`` (its metrics get ``name.`` prefixes).

        Registering a name again replaces its source — the idempotent
        shape attach/restart paths need.
        """
        if not callable(source):
            raise TypeError(f"source {name!r} is not callable")
        with self._lock:
            self._sources[str(name)] = source

    def add_spec(self, spec: SLOSpec) -> None:
        """Register ``spec``; a longer ``long_window`` deepens the row store."""
        if not isinstance(spec, SLOSpec):
            raise TypeError(f"expected an SLOSpec, got {type(spec).__name__}")
        with self._lock:
            if spec.name in self._specs:
                raise ValueError(f"an SLO named {spec.name!r} already exists")
            self._specs[spec.name] = spec
            if spec.long_window > self._rows.maxlen:
                self._rows = deque(self._rows, maxlen=spec.long_window)

    def specs(self) -> List[SLOSpec]:
        with self._lock:
            return list(self._specs.values())

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def _sample(self, tick: int) -> List[Row]:
        """Poll every source into one row at ``tick``; returns the kept rows.

        Sources are polled outside the lock.  A raising source contributes
        nothing to the row (counted as ``source_errors`` in :attr:`stats`)
        — one broken stats provider must not take the engine down — and
        values that are not finite numbers are skipped.
        """
        with self._lock:
            sources = list(self._sources.items())
        values: Dict[str, float] = {}
        errors = 0
        for name, source in sources:
            try:
                metrics = source()
            except Exception:
                errors += 1
                continue
            for key, raw in metrics.items():
                try:
                    value = float(raw)
                except (TypeError, ValueError):
                    continue
                if math.isfinite(value):
                    values[f"{name}.{key}"] = value
        with self._lock:
            self._rows.append((tick, values))
            self._source_errors += errors
            return list(self._rows)

    def step(self, tick: int) -> List[Dict[str, Any]]:
        """Sample all sources at ``tick``, then evaluate every spec.

        Returns the transition records performed this step (also retained
        in :meth:`transitions` and emitted as structured events).
        """
        tick = int(tick)
        rows = self._sample(tick)
        performed: List[Dict[str, Any]] = []
        with self._lock:
            specs = list(self._specs.values())
            self._evaluations += 1
            self._last_tick = tick
        for spec in specs:
            for series in spec.expand(rows):
                burn_long = spec.burn_rate(rows, series, spec.long_window)
                burn_short = spec.burn_rate(rows, series, spec.short_window)
                breached = (
                    burn_long >= spec.burn_threshold
                    and burn_short >= spec.burn_threshold
                )
                key = (spec.name, series)
                with self._lock:
                    alert = self._alerts.get(key)
                    if alert is None:
                        alert = self._alerts[key] = Alert(spec, series)
                alert.burn_long = burn_long
                alert.burn_short = burn_short
                # A fresh breach may legitimately move twice in one
                # evaluation (pending then firing, when for_ticks == 0).
                for _ in range(2):
                    moved = alert.update(tick, breached)
                    if moved is None:
                        break
                    performed.append(self._record_transition(alert, moved, tick))
                    if moved != "pending" or spec.for_ticks > 0:
                        break
        return performed

    def _record_transition(self, alert: Alert, state: str, tick: int) -> Dict[str, Any]:
        record = {
            "tick": tick,
            "state": state,
            "slo": alert.spec.name,
            "series": alert.series,
            "severity": alert.spec.severity,
            "burn_long": alert.burn_long,
            "burn_short": alert.burn_short,
        }
        with self._lock:
            self._transitions.append(record)
            self._transition_counts[(alert.spec.name, state)] += 1
        log_event(
            f"slo.alert_{state}",
            message=(
                f"SLO {alert.spec.name!r} [{alert.series}] {state} at tick "
                f"{tick} (burn {alert.burn_long:.2f}/{alert.burn_short:.2f} "
                f"vs {alert.spec.burn_threshold:.2f})"
            ),
            **record,
        )
        return record

    # ------------------------------------------------------------------ #
    # Read surfaces
    # ------------------------------------------------------------------ #
    def alerts(self) -> List[Alert]:
        with self._lock:
            return list(self._alerts.values())

    def firing(self, severity: Optional[str] = None) -> List[Alert]:
        """Alerts currently in the ``firing`` state (optionally by severity)."""
        return [
            alert
            for alert in self.alerts()
            if alert.state == "firing"
            and (severity is None or alert.spec.severity == severity)
        ]

    def transitions(self, limit: int = 100) -> List[Dict[str, Any]]:
        """The most recent transition records, oldest first."""
        limit = int(limit)
        if limit <= 0:
            return []
        with self._lock:
            return list(self._transitions)[-limit:]

    @property
    def evaluations(self) -> int:
        """Evaluation passes completed (monotonic counter)."""
        with self._lock:
            return self._evaluations

    @property
    def stats(self) -> Dict[str, int]:
        """Sample store counters; ``capacity`` is the longest ``long_window``."""
        with self._lock:
            return {
                "samples": len(self._rows),
                "capacity": self._rows.maxlen,
                "sources": len(self._sources),
                "source_errors": self._source_errors,
                "last_tick": self._rows[-1][0] if self._rows else -1,
            }

    def transition_counts(self) -> Dict[Tuple[str, str], int]:
        """Monotonic ``(slo, state) -> transitions`` counters (metrics feed)."""
        with self._lock:
            return dict(self._transition_counts)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state for ``GET /alerts``."""
        with self._lock:
            evaluations = self._evaluations
            last_tick = self._last_tick
        return {
            "evaluations": evaluations,
            "last_tick": last_tick,
            "specs": [spec.to_dict() for spec in self.specs()],
            "alerts": [alert.to_dict() for alert in self.alerts()],
            "firing": [alert.to_dict() for alert in self.firing()],
            "transitions": self.transitions(),
            "history": self.stats,
        }

    def __repr__(self) -> str:
        firing = len(self.firing())
        return (
            f"SLOEngine({len(self.specs())} specs, {len(self.alerts())} alerts, "
            f"{firing} firing, last_tick={self._last_tick})"
        )


# --------------------------------------------------------------------------- #
# Metric sources over the serving stack
# --------------------------------------------------------------------------- #
def server_source(server: Any):
    """Numeric scalars of :attr:`InferenceServer.stats` (counters + gauges)."""

    def sample() -> Dict[str, float]:
        return {
            key: value
            for key, value in server.stats.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }

    return sample


def fleet_source(fleet: Any):
    """Per-stream monitor gauges + per-kind event counters of one fleet.

    Emits ``stream.<name>.<metric>`` rolling-monitor gauges (coverage in
    percent, MAE, ...), cumulative ``events.<kind>`` counters of the
    fleet-level event log and ``stream_events.<kind>`` counters summed over
    the per-stream logs — zero-drop SLOs watch
    ``events.stream_predict_failed``.  The counters are the logs' own
    per-kind counts, so a sample costs the same however long the logs grow.
    """

    def sample() -> Dict[str, float]:
        values: Dict[str, float] = {"tick": float(fleet._tick)}
        for kind, count in fleet.event_log.counts.items():
            values[f"events.{kind}"] = float(count)
        stream_kinds: Counter = Counter()
        for name, stream in fleet.streams.items():
            snapshot = stream.core.monitor.snapshot()
            for key in ("coverage", "mae", "rmse", "mean_width", "winkler"):
                if key in snapshot:
                    values[f"stream.{name}.{key}"] = snapshot[key]
            values[f"stream.{name}.steps"] = float(stream.core.step)
            stream_kinds.update(stream.core.event_log.counts)
        for kind, count in stream_kinds.items():
            values[f"stream_events.{kind}"] = float(count)
        return values

    return sample


def gateway_source(gateway: Any):
    """Request totals + per-route p99 latency from the gateway's metrics."""

    def sample() -> Dict[str, float]:
        metrics = gateway.metrics
        snapshot = metrics.snapshot()
        values: Dict[str, float] = {
            "requests_total": float(snapshot["requests_total"]),
            "errors_total": float(snapshot["errors_total"]),
            "ok_total": float(snapshot["requests_total"] - snapshot["errors_total"]),
        }
        for route in metrics.routes():
            values[f"p99{route}"] = metrics.quantile(route, 0.99)
        return values

    return sample


def default_slos(
    coverage_target: float = 0.80,
    coverage_bound: float = 85.0,
    p99_bound_s: float = 0.5,
    availability: float = 0.99,
) -> List[SLOSpec]:
    """A practical starter set over the standard source names.

    Assumes sources registered as ``gateway`` (:func:`gateway_source`),
    ``fleet`` (:func:`fleet_source`) and ``server`` (:func:`server_source`) —
    the wiring :meth:`StreamFleet.attach_slo` and :class:`Gateway` perform.
    ``coverage_bound`` is in percent, like the monitor's rolling coverage
    that ``fleet.stream.*.coverage`` samples.
    """
    return [
        SLOSpec(
            name="availability",
            kind="ratio",
            good="gateway.ok_total",
            total="gateway.requests_total",
            target=availability,
            long_window=20,
            short_window=5,
            severity="page",
            description="HTTP requests answered without an error status.",
        ),
        SLOSpec(
            name="predict_p99_latency",
            kind="upper",
            metric="gateway.p99/predict",
            bound=p99_bound_s,
            target=0.90,
            long_window=20,
            short_window=5,
            description=f"/predict p99 stays under {p99_bound_s * 1e3:.0f} ms.",
        ),
        SLOSpec(
            name="stream_coverage",
            kind="lower",
            metric="fleet.stream.*.coverage",
            bound=coverage_bound,
            target=coverage_target,
            long_window=16,
            short_window=4,
            for_ticks=2,
            severity="page",
            description="Per-stream rolling PICP stays above the floor.",
        ),
        SLOSpec(
            name="zero_drop",
            kind="zero",
            metric="fleet.events.stream_predict_failed",
            target=0.999,
            long_window=8,
            short_window=2,
            severity="page",
            description="No stream predict may fail (drops are incidents).",
        ),
    ]
