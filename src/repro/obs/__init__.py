"""``repro.obs`` — tracing, per-tick phase profiling, structured logging.

The serving stack's measurement plane, four instruments behind one switch:

* **request tracing** (:mod:`repro.obs.trace`) — trace/span IDs minted at
  the gateway and by :meth:`~repro.fleet.StreamFleet.tick`, propagated via
  thread-local span stacks with explicit cross-thread handoff into the
  micro-batch workers; sampled spans land in a bounded
  :class:`~repro.obs.trace.TraceStore` ring served by ``GET /trace``;
* **phase profiling** (:mod:`repro.obs.profiler`) — named phase timers
  (``window_build`` ... ``checkpoint``) on the fleet tick and stream cores,
  aggregated into per-phase count/total/p50/p99 served by ``GET /profile``
  and merged into ``GET /metrics``;
* **structured logging** (:mod:`repro.obs.events`) — ``obs.log_event``
  JSON records with trace-ID correlation for drift events, refit
  lifecycle, promote/rollback and chaos injections;
* **SLO engine** (:mod:`repro.obs.slo`) — samples the stack's
  counters/gauges once per tick, keeping only the rows its longest window
  reads, and evaluates declarative :class:`SLOSpec` objectives with
  multi-window burn-rate rules into a deterministic alert lifecycle
  (pending → firing → resolved) served by ``GET /alerts``, ``/metrics``
  ``ALERTS`` families and the ``GET /tail`` live event stream.

Everything is **off by default** and constant-time when off: instrumented
hot paths pay one flag check (plus a shared no-op context manager), so
tracing-disabled fleet ticks are bit-identical to an uninstrumented build.
Enable it all with::

    from repro import obs
    obs.configure(enabled=True, seed=0)         # deterministic sampling
    ...
    obs.trace_store().traces(limit=5)           # recent span trees
    print(obs.profiler().summary())             # per-phase breakdown

or per instrument via ``configure(tracing=..., profiling=..., logging=...)``.
Setting ``REPRO_OBS=1`` in the environment enables the whole layer at
import time (handy for examples and ad-hoc runs).
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.obs.events import (
    configure_logging,
    events_emitted,
    events_since,
    last_event_seq,
    log_event,
    logging_enabled,
    recent_events,
)
from repro.obs.profiler import (
    PHASES,
    PhaseProfiler,
    configure_profiling,
    phase,
    profiler,
    profiling_enabled,
    record_phase,
)
from repro.obs.slo import (
    Alert,
    SLOEngine,
    SLOSpec,
    default_slos,
    fleet_source,
    gateway_source,
    server_source,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    TraceStore,
    configure_tracing,
    current_context,
    current_span,
    record_span,
    start_span,
    start_trace,
    trace_store,
    tracing_enabled,
)

__all__ = [
    "Alert",
    "PHASES",
    "PhaseProfiler",
    "SLOEngine",
    "SLOSpec",
    "Span",
    "SpanContext",
    "TraceStore",
    "configure",
    "configure_logging",
    "configure_profiling",
    "configure_tracing",
    "current_context",
    "current_span",
    "default_slos",
    "enabled",
    "events_emitted",
    "events_since",
    "fleet_source",
    "gateway_source",
    "last_event_seq",
    "log_event",
    "logging_enabled",
    "phase",
    "profiler",
    "profiling_enabled",
    "recent_events",
    "record_phase",
    "record_span",
    "reset",
    "server_source",
    "start_span",
    "start_trace",
    "trace_store",
    "tracing_enabled",
]


def enabled() -> bool:
    """True when *any* obs instrument is live."""
    return tracing_enabled() or profiling_enabled() or logging_enabled()


def configure(
    enabled: Optional[bool] = None,
    tracing: Optional[bool] = None,
    profiling: Optional[bool] = None,
    logging: Optional[bool] = None,
    sample_rate: Optional[float] = None,
    seed: Optional[int] = None,
    trace_capacity: Optional[int] = None,
    sample_window: Optional[int] = None,
    log_sink: Any = None,
) -> None:
    """One-call switchboard for the whole observability layer.

    ``enabled`` flips tracing + profiling + logging together; the
    per-instrument flags override it.  ``seed`` makes head sampling (and
    span-ID minting) deterministic; ``sample_rate`` is the head-sampling
    fraction; ``log_sink`` replaces the structured-log sink (``False``
    silences it, keeping the in-memory ring).
    """
    if enabled is not None:
        tracing = enabled if tracing is None else tracing
        profiling = enabled if profiling is None else profiling
        logging = enabled if logging is None else logging
    configure_tracing(
        enabled=tracing, sample_rate=sample_rate, seed=seed, capacity=trace_capacity
    )
    configure_profiling(enabled=profiling, sample_window=sample_window)
    configure_logging(enabled=logging, sink=log_sink)


def reset() -> None:
    """Disable every instrument, restore full sampling, drop spans/phases (tests)."""
    configure(enabled=False, sample_rate=1.0)
    trace_store().clear()
    profiler().reset()
    configure_logging(ring_size=1024)


if os.environ.get("REPRO_OBS", "").strip().lower() in ("1", "true", "yes", "on"):
    configure(enabled=True)
