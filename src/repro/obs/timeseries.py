"""Bounded in-process metrics history: tick-driven samples, window queries.

The obs layer's counters and gauges (server stats, stream monitors, gateway
latency summaries, the phase profiler) answer "what is the value *now*" —
an SLO engine needs "what happened over the last N ticks".
:class:`MetricsHistory` closes that gap without any external TSDB: named
*sources* (zero-argument callables returning flat ``{metric: float}`` dicts)
are polled on a deterministic tick-driven cadence by :meth:`sample`, and the
resulting ``(tick, values)`` rows land in a bounded ring.

Query surface, all over the most recent ``window`` samples:

* :meth:`series` — the ``(tick, value)`` points of one metric;
* :meth:`values` — the raw windowed value list (gauge breach fractions);
* :meth:`counter_delta` — how much a cumulative counter rose, counting the
  increment that created its series.

Sampling is the only mutation and is driven by whoever owns the clock
(:meth:`StreamFleet.tick` in the serving stack, a plain loop in tests), so
a fixed-seed run produces bit-identical histories — there is no wall-clock
anywhere in the data path.  Non-finite source values are dropped at the
door: NaN warm-up gauges never enter a window, so downstream burn-rate
math (and the metric families rendered from it) stays NaN-free.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["MetricsHistory", "MetricSource"]

#: A metrics source: zero-argument callable returning ``{metric: number}``.
MetricSource = Callable[[], Mapping[str, Any]]


class MetricsHistory:
    """Bounded ring of tick-stamped metric samples with window queries.

    Parameters
    ----------
    capacity:
        Samples retained; the oldest fall off as new ticks arrive, so memory
        stays bounded no matter how long the service runs.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._sources: Dict[str, MetricSource] = {}
        self._samples: deque = deque(maxlen=self.capacity)  # (tick, {name: value})
        self._source_errors = 0

    # ------------------------------------------------------------------ #
    # Sources
    # ------------------------------------------------------------------ #
    def add_source(self, name: str, source: MetricSource) -> None:
        """Register ``source`` under ``name`` (its metrics get ``name.`` prefixes).

        Re-registering an existing name replaces the source — the idempotent
        shape attach/restart paths need.
        """
        if not callable(source):
            raise TypeError(f"source {name!r} is not callable")
        with self._lock:
            self._sources[str(name)] = source

    def sources(self) -> List[str]:
        with self._lock:
            return sorted(self._sources)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self, tick: int) -> Dict[str, float]:
        """Poll every source and append one ``(tick, values)`` row.

        A raising source contributes nothing to the row (counted in
        :attr:`stats` as ``source_errors``) — one broken stats provider must
        not take the whole history down.  Values that are not finite numbers
        are skipped, so windows only ever hold real floats.
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
            self._samples.append((int(tick), values))
            self._source_errors += errors
        return values

    def record(self, tick: int, values: Mapping[str, Any]) -> None:
        """Append one externally-built row (tests, ad-hoc backfills)."""
        clean = {
            str(key): float(value)
            for key, value in values.items()
            if isinstance(value, (int, float)) and math.isfinite(float(value))
        }
        with self._lock:
            self._samples.append((int(tick), clean))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "samples": len(self._samples),
                "capacity": self.capacity,
                "sources": len(self._sources),
                "source_errors": self._source_errors,
                "last_tick": self._samples[-1][0] if self._samples else -1,
            }

    def names(self) -> List[str]:
        """Metric names present in the most recent sample (sorted)."""
        with self._lock:
            if not self._samples:
                return []
            return sorted(self._samples[-1][1])

    def _recent(self, window: Optional[int]) -> List[Tuple[int, Dict[str, float]]]:
        with self._lock:
            rows = list(self._samples)
        if window is not None:
            rows = rows[-max(int(window), 0):]
        return rows

    def series(self, metric: str, window: Optional[int] = None) -> List[Tuple[int, float]]:
        """``(tick, value)`` points of ``metric`` over the last ``window`` samples."""
        return [
            (tick, values[metric])
            for tick, values in self._recent(window)
            if metric in values
        ]

    def values(self, metric: str, window: Optional[int] = None) -> List[float]:
        """Just the values of :meth:`series` (gauge breach-fraction input)."""
        return [value for _, value in self.series(metric, window)]

    def counter_delta(self, metric: str, window: Optional[int] = None) -> float:
        """How much a cumulative counter rose over the window.

        Last minus first value (0.0 with fewer than 2 points), except that
        per-kind counters (the fleet's ``events.<kind>`` families) only
        appear in sampled rows once the first event of that kind lands, and
        a last-minus-first would miss the very increment that created the
        series.  So window rows sampled *before* the metric's first point
        count as implicit zeros — the 0 → N appearance reads as an increase
        of N.  Rows only read as implicit zeros when they exist
        without the metric; attaching to a long-lived process mid-run
        contributes no such rows, so a pre-existing cumulative total is a
        baseline, not a burst.
        """
        rows = self._recent(window)
        points = [(tick, row[metric]) for tick, row in rows if metric in row]
        if not points:
            return 0.0
        if rows[0][0] < points[0][0]:
            return points[-1][1]  # sprang into existence mid-window
        if len(points) < 2:
            return 0.0
        return points[-1][1] - points[0][1]

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"MetricsHistory({stats['samples']}/{stats['capacity']} samples, "
            f"{stats['sources']} sources, last_tick={stats['last_tick']})"
        )
