"""Per-tick phase profiler: named timers aggregated into phase histograms.

The fleet tick is the system's inner loop; before attacking its hot path we
need to know *where inside a tick* time goes.  :class:`PhaseProfiler` keeps,
per named phase (``window_build``, ``batch_wait``, ``model_forward``,
``calibrate``, ``aci_update``, ``monitor_update``, ``drift_detect``,
``spatial_agg``, ``checkpoint``):

* an exact running ``count`` and ``total`` seconds (monotonic — what the
  Prometheus ``_count`` / ``_sum`` series render);
* a bounded ring of the most recent samples for p50/p99 readouts, read
  with :func:`nearest_rank`, the quantile rule the gateway's latency
  summaries use too.

A phase counts once per occurrence of the work it times.  The stream cores
calibrate, resolve and monitor a fleet tick's streams in one batch
(:func:`repro.streaming.shard.record_many` / ``resolve_many``), so
``calibrate``, ``aci_update`` and ``monitor_update`` count once per batch
(once per tick per sensor-count group), not once per stream; a solo runner's
batch is its one stream.

Instrumented code uses the module-level :func:`phase` context manager (or
:func:`record_phase` when it already timed the interval itself — the batch
worker's shape).  Both are constant-time no-ops while profiling is disabled:
one flag check, one shared inert context manager, no allocation — the same
discipline as :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "PHASES",
    "PhaseProfiler",
    "configure_profiling",
    "nearest_rank",
    "phase",
    "profiler",
    "profiling_enabled",
    "record_phase",
]

#: The canonical tick phases, in hot-path order (custom names are accepted
#: too; this tuple fixes the ordering of summary renderings).
PHASES = (
    "window_build",
    "batch_wait",
    "model_forward",
    "calibrate",
    "aci_update",
    "monitor_update",
    "drift_detect",
    "spatial_agg",
    "checkpoint",
    "slo_eval",
)


def nearest_rank(samples: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile: the ``ceil(q * n)``-th smallest sample.

    ``q = 0`` reads the smallest; NaN with no samples.  Every ``/metrics``
    summary (gateway latencies, profiler phases) uses this one rule.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    return float(ordered[max(math.ceil(q * len(ordered)), 1) - 1])


class _PhaseStat:
    """Accumulator for one phase: exact count/total + a sample ring."""

    __slots__ = ("count", "total", "samples")

    def __init__(self, sample_window: int) -> None:
        self.count = 0
        self.total = 0.0
        self.samples: deque = deque(maxlen=sample_window)

    def quantile(self, q: float) -> float:
        return nearest_rank(self.samples, q)


class _PhaseTimer:
    """Context manager timing one phase occurrence (re-entrant per use)."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler.record(self._name, time.perf_counter() - self._start)


class _NoopTimer:
    """Shared inert timer returned while profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_TIMER = _NoopTimer()


class PhaseProfiler:
    """Thread-safe aggregation of named phase timings.

    ``sample_window`` bounds the per-phase quantile ring; count/total stay
    exact forever.  One instance is process-global (:func:`profiler`) — the
    fleet tick, the stream cores and the inference server all feed it, so
    one :meth:`snapshot` is the whole per-tick cost breakdown.
    """

    #: Bound on remembered :meth:`delta` consumer keys (oldest evicted).
    MAX_DELTA_KEYS = 64

    def __init__(self, sample_window: int = 4096) -> None:
        if sample_window < 1:
            raise ValueError("sample_window must be >= 1")
        self.sample_window = int(sample_window)
        self._lock = threading.Lock()
        self._phases: Dict[str, _PhaseStat] = {}
        # delta-consumer key -> {phase: (count, total)} at its last read
        self._baselines: "OrderedDict[str, Dict[str, Tuple[int, float]]]" = (
            OrderedDict()
        )

    def record(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold ``count`` occurrences totalling ``seconds`` into ``name``.

        With ``count > 1`` the ring receives one sample — the *mean*
        occurrence — so aggregate records (a whole batch's wait) do not
        flood the quantile window.
        """
        seconds = float(seconds)
        with self._lock:
            stat = self._phases.get(name)
            if stat is None:
                stat = self._phases[name] = _PhaseStat(self.sample_window)
            stat.count += int(count)
            stat.total += seconds
            stat.samples.append(seconds / count if count > 1 else seconds)

    def phase(self, name: str) -> _PhaseTimer:
        return _PhaseTimer(self, name)

    def reset(self) -> None:
        with self._lock:
            self._phases.clear()
            self._baselines.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready ``{phase: {count, total_s, mean_ms, p50_ms, p99_ms}}``.

        Phases render in :data:`PHASES` order first, then any custom names
        alphabetically.
        """
        with self._lock:
            items = {
                name: (stat.count, stat.total, stat.quantile(0.50), stat.quantile(0.99))
                for name, stat in self._phases.items()
            }
        known = [name for name in PHASES if name in items]
        extra = sorted(set(items) - set(PHASES))
        out: Dict[str, Dict[str, float]] = {}
        for name in known + extra:
            count, total, p50, p99 = items[name]
            out[name] = {
                "count": count,
                "total_s": total,
                "mean_ms": (total / count * 1e3) if count else float("nan"),
                "p50_ms": p50 * 1e3,
                "p99_ms": p99 * 1e3,
            }
        return out

    def delta(self, key: str = "default") -> Dict[str, Dict[str, float]]:
        """Interval snapshot since this ``key``'s previous :meth:`delta` call.

        Each consumer (a Prometheus scraper, a dashboard poller) passes its
        own ``key`` and receives the count/total/mean accumulated *since its
        last read* — successive scrapes report the interval, not lifetime
        totals.  The first call for a key covers everything so far.
        ``p50_ms`` / ``p99_ms`` remain the rolling-ring quantiles (quantiles
        do not difference), and phases idle over the interval are omitted.
        Baselines for at most :data:`MAX_DELTA_KEYS` consumers are retained;
        the least recently read is forgotten (its next read starts over).
        """
        key = str(key)
        with self._lock:
            current = {
                name: (stat.count, stat.total, stat.quantile(0.50), stat.quantile(0.99))
                for name, stat in self._phases.items()
            }
            baseline = self._baselines.pop(key, {})
            self._baselines[key] = {
                name: (count, total) for name, (count, total, _, _) in current.items()
            }
            while len(self._baselines) > self.MAX_DELTA_KEYS:
                self._baselines.popitem(last=False)
        known = [name for name in PHASES if name in current]
        extra = sorted(set(current) - set(PHASES))
        out: Dict[str, Dict[str, float]] = {}
        for name in known + extra:
            count, total, p50, p99 = current[name]
            base_count, base_total = baseline.get(name, (0, 0.0))
            d_count = count - base_count
            d_total = total - base_total
            if d_count <= 0:
                continue
            out[name] = {
                "count": d_count,
                "total_s": d_total,
                "mean_ms": d_total / d_count * 1e3,
                "p50_ms": p50 * 1e3,
                "p99_ms": p99 * 1e3,
            }
        return out

    def summary(self) -> str:
        """Fixed-width text breakdown, phases sorted by total cost."""
        snap = self.snapshot()
        if not snap:
            return "(no phases recorded)"
        rows = sorted(snap.items(), key=lambda item: -item[1]["total_s"])
        grand_total = sum(entry["total_s"] for _, entry in rows) or float("nan")
        lines = [
            f"{'phase':<16} {'count':>8} {'total (s)':>10} {'share':>7} "
            f"{'mean (ms)':>10} {'p50 (ms)':>9} {'p99 (ms)':>9}"
        ]
        for name, entry in rows:
            lines.append(
                f"{name:<16} {entry['count']:>8} {entry['total_s']:>10.4f} "
                f"{entry['total_s'] / grand_total * 100.0:>6.1f}% "
                f"{entry['mean_ms']:>10.4f} {entry['p50_ms']:>9.4f} "
                f"{entry['p99_ms']:>9.4f}"
            )
        return "\n".join(lines)

    def top_phases(self, n: int = 3) -> List[str]:
        """The ``n`` most expensive phase names by total seconds."""
        snap = self.snapshot()
        ranked = sorted(snap.items(), key=lambda item: -item[1]["total_s"])
        return [name for name, _ in ranked[:n]]


# --------------------------------------------------------------------------- #
# Process-global state
# --------------------------------------------------------------------------- #
_PROFILER = PhaseProfiler()
_enabled = False


def profiling_enabled() -> bool:
    return _enabled


def profiler() -> PhaseProfiler:
    return _PROFILER


def configure_profiling(
    enabled: Optional[bool] = None,
    sample_window: Optional[int] = None,
) -> None:
    """(Re)configure profiling; ``sample_window`` rebuilds the aggregator."""
    global _enabled, _PROFILER
    if enabled is not None:
        _enabled = bool(enabled)
    if sample_window is not None:
        _PROFILER = PhaseProfiler(sample_window=sample_window)


def phase(name: str):
    """Time one phase occurrence: ``with obs.phase("aci_update"): ...``.

    Returns the shared no-op timer while profiling is disabled — safe (and
    near-free) to leave in the hottest per-stream loops.
    """
    if not _enabled:
        return _NOOP_TIMER
    return _PROFILER.phase(name)


def record_phase(name: str, seconds: float, count: int = 1) -> None:
    """Fold an already-measured interval in (no-op while disabled)."""
    if _enabled:
        _PROFILER.record(name, seconds, count=count)
