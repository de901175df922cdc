"""Trace context: spans, thread-local stacks, cross-thread handoff, storage.

One *trace* is the tree of timed *spans* a single request (or one fleet
tick) produced as it moved through the serving stack.  Trace/span IDs are
minted at the edges — the gateway's HTTP handler, or
:meth:`~repro.fleet.StreamFleet.tick` — and propagated via a thread-local
span stack: :func:`start_span` parents itself under whatever span is active
on the current thread, so synchronous call chains nest for free.

The serving path is *not* synchronous: a request submitted on an HTTP
handler thread is executed by a micro-batch worker thread.  The handoff is
explicit — the submitter captures :func:`current_context` into the queued
request, and the worker records its batch/model spans with that context as
``parent`` (see :func:`record_span`), so the batch-execution span correctly
parents under the span that submitted it even though the two never share a
thread.

Finished spans of *sampled* traces land in the process-global
:class:`TraceStore`, a bounded thread-safe ring buffer: old traces fall off
the back, memory stays bounded no matter how long the service runs.  Head
sampling is decided once per trace at mint time from a seeded RNG stream, so
a fixed-seed run samples the same traces every time.

Everything here is allocation-free when tracing is disabled:
:func:`start_trace` / :func:`start_span` return a shared no-op span and
:func:`current_context` returns ``None`` after a single flag check.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanContext",
    "TraceStore",
    "configure_tracing",
    "current_context",
    "record_span",
    "start_span",
    "start_trace",
    "trace_store",
    "tracing_enabled",
]


@dataclass(frozen=True)
class SpanContext:
    """The minimal handle one thread hands another: where to parent.

    ``sampled`` carries the trace's head-sampling verdict along, so work done
    on behalf of an unsampled trace skips span recording entirely.
    """

    trace_id: str
    span_id: str
    sampled: bool = True


class Span:
    """One named, timed operation inside a trace.

    Spans are mutable while open (attributes accrue, ``end`` is stamped on
    close) and treated as immutable once handed to the :class:`TraceStore`.
    Timestamps are ``time.perf_counter()`` values — monotonic and
    comparable across threads within one process — plus a wall-clock
    ``wall_start`` for display.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name",
        "start", "end", "wall_start", "thread", "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = time.perf_counter() if start is None else float(start)
        self.end = end
        self.wall_start = time.time()
        self.thread = threading.current_thread().name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}

    # -- context-manager surface (used via start_trace / start_span) ----- #
    def __enter__(self) -> "Span":
        _push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()
        _pop(self)

    def finish(self, end: Optional[float] = None) -> "Span":
        if self.end is None:
            self.end = time.perf_counter() if end is None else float(end)
            _STORE.add(self)
        return self

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[str(key)] = value
        return self

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, sampled=True)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record (durations in milliseconds)."""
        duration = self.duration
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "thread": self.thread,
            "wall_start": self.wall_start,
            "duration_ms": None if duration is None else duration * 1e3,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        duration = self.duration
        timing = f"{duration * 1e3:.2f}ms" if duration is not None else "open"
        return f"Span({self.name!r}, trace={self.trace_id}, {timing})"


class _NoopSpan:
    """Shared inert span: what the tracing API returns while disabled.

    Supports the same surface as :class:`Span` (context manager, ``set_attr``,
    ``finish``) so instrumented code needs no enabled/disabled branches; every
    method is a constant-time no-op on one shared instance.
    """

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    name = ""
    attrs: Dict[str, Any] = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def finish(self, end: Optional[float] = None) -> "_NoopSpan":
        return self

    def set_attr(self, key: str, value: Any) -> "_NoopSpan":
        return self

    @property
    def context(self) -> None:
        return None

    def __repr__(self) -> str:
        return "Span(<noop>)"


NOOP_SPAN = _NoopSpan()


class TraceStore:
    """Bounded, thread-safe ring buffer of finished spans, grouped by trace.

    ``capacity`` bounds the number of *spans* retained; when the ring wraps,
    the oldest spans (and eventually whole traces) fall off.  Grouping by
    trace keeps :meth:`traces` cheap: an :class:`OrderedDict` keyed by trace
    ID, freshest trace last.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._spans: "OrderedDict[str, List[Span]]" = OrderedDict()
        self._count = 0
        self._added = 0
        self._evicted = 0

    def add(self, span: Span) -> None:
        with self._lock:
            bucket = self._spans.get(span.trace_id)
            if bucket is None:
                bucket = self._spans[span.trace_id] = []
            else:
                self._spans.move_to_end(span.trace_id)
            bucket.append(span)
            self._count += 1
            self._added += 1
            while self._count > self.capacity:
                oldest_id, oldest = next(iter(self._spans.items()))
                evicted = oldest.pop(0)
                self._count -= 1
                self._evicted += 1
                if not oldest:
                    del self._spans[oldest_id]
                del evicted

    def __len__(self) -> int:
        with self._lock:
            return self._count

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "spans_stored": self._count,
                "traces_stored": len(self._spans),
                "spans_added": self._added,
                "spans_evicted": self._evicted,
            }

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._count = 0

    def spans(self, trace_id: str) -> List[Span]:
        with self._lock:
            return list(self._spans.get(trace_id, ()))

    def traces(self, limit: int = 20) -> List[Dict[str, Any]]:
        """The ``limit`` most recent traces as JSON-ready span trees.

        Each trace renders as ``{"trace_id", "root", "spans"}`` where every
        span record carries a ``children`` list; spans whose parent fell off
        the ring (or was never recorded) surface as extra roots under a
        synthetic top-level list, so a partially evicted trace still renders.
        """
        limit = int(limit)
        if limit <= 0:
            return []
        with self._lock:
            recent = list(self._spans.items())[-limit:]
            recent = [(trace_id, list(spans)) for trace_id, spans in recent]
        out: List[Dict[str, Any]] = []
        for trace_id, spans in reversed(recent):  # freshest first
            records = {span.span_id: span.to_dict() for span in spans}
            for record in records.values():
                record["children"] = []
            roots: List[Dict[str, Any]] = []
            for span in spans:
                record = records[span.span_id]
                parent = records.get(span.parent_id) if span.parent_id else None
                if parent is not None:
                    parent["children"].append(record)
                else:
                    roots.append(record)
            out.append(
                {"trace_id": trace_id, "num_spans": len(spans), "spans": roots}
            )
        return out


# --------------------------------------------------------------------------- #
# Process-global state
# --------------------------------------------------------------------------- #
_STORE = TraceStore()
_local = threading.local()

_state_lock = threading.Lock()
_enabled = False
_sample_rate = 1.0
_sampler = random.Random(0)
_trace_counter = itertools.count(1)
_span_counter = itertools.count(1)


def tracing_enabled() -> bool:
    return _enabled


def trace_store() -> TraceStore:
    return _STORE


def configure_tracing(
    enabled: Optional[bool] = None,
    sample_rate: Optional[float] = None,
    seed: Optional[int] = None,
    capacity: Optional[int] = None,
) -> None:
    """(Re)configure the tracing layer.

    ``seed`` re-seeds the head sampler *and* resets the ID counters, so a
    fixed-seed run mints the same IDs and samples the same traces every
    time; ``capacity`` rebuilds the span ring (dropping stored spans).
    """
    global _enabled, _sample_rate, _sampler, _STORE, _trace_counter, _span_counter
    with _state_lock:
        if enabled is not None:
            _enabled = bool(enabled)
        if sample_rate is not None:
            if not 0.0 <= sample_rate <= 1.0:
                raise ValueError("sample_rate must lie in [0, 1]")
            _sample_rate = float(sample_rate)
        if seed is not None:
            _sampler = random.Random(int(seed))
            _trace_counter = itertools.count(1)
            _span_counter = itertools.count(1)
        if capacity is not None:
            _STORE = TraceStore(capacity=capacity)


def _stack() -> List[Span]:
    stack = getattr(_local, "spans", None)
    if stack is None:
        stack = _local.spans = []
    return stack


def _push(span: Span) -> None:
    _stack().append(span)


def _pop(span: Span) -> None:
    stack = _stack()
    if stack and stack[-1] is span:
        stack.pop()
    elif span in stack:  # pragma: no cover - unbalanced exit, stay consistent
        stack.remove(span)


def current_span() -> Optional[Span]:
    """The span on top of this thread's stack (``None`` when idle/disabled)."""
    if not _enabled:
        return None
    stack = getattr(_local, "spans", None)
    return stack[-1] if stack else None


def current_context() -> Optional[SpanContext]:
    """Capture-able handle on the active span (the cross-thread handoff)."""
    span = current_span()
    return span.context if span is not None else None


def _sample() -> bool:
    with _state_lock:
        if _sample_rate >= 1.0:
            return True
        if _sample_rate <= 0.0:
            return False
        return _sampler.random() < _sample_rate


def _mint_trace_id() -> str:
    with _state_lock:
        return f"t{next(_trace_counter):08x}"


def _mint_span_id() -> str:
    with _state_lock:
        return f"s{next(_span_counter):08x}"


def start_trace(name: str, attrs: Optional[Dict[str, Any]] = None):
    """Mint a new trace and open its root span (head-sampled at mint time).

    Use as a context manager.  An unsampled trace returns the shared no-op
    span: its whole tree costs nothing and records nothing.
    """
    if not _enabled or not _sample():
        return NOOP_SPAN
    return Span(_mint_trace_id(), _mint_span_id(), None, name, attrs=attrs)


def start_span(
    name: str,
    attrs: Optional[Dict[str, Any]] = None,
    parent: Optional[SpanContext] = None,
):
    """Open a child span under ``parent`` (default: this thread's active span).

    With no parent anywhere, returns the no-op span — bare library calls
    outside any trace never record orphan spans.
    """
    if not _enabled:
        return NOOP_SPAN
    if parent is None:
        active = current_span()
        if active is None:
            return NOOP_SPAN
        parent = active.context
    elif not parent.sampled:
        return NOOP_SPAN
    return Span(parent.trace_id, _mint_span_id(), parent.span_id, name, attrs=attrs)


def record_span(
    name: str,
    parent: Optional[SpanContext],
    start: float,
    end: float,
    attrs: Optional[Dict[str, Any]] = None,
) -> Optional[SpanContext]:
    """Record one already-timed span under a captured context.

    The batch worker's API: it measured ``start`` / ``end`` itself (with
    ``time.perf_counter()``) and attributes the interval to the submitting
    request's trace after the fact.  Returns the new span's context so a
    further child (the model pass inside the batch) can chain under it;
    ``None`` when tracing is off or the parent context is absent/unsampled.
    """
    if not _enabled or parent is None or not parent.sampled:
        return None
    span = Span(
        parent.trace_id, _mint_span_id(), parent.span_id, name,
        start=start, attrs=attrs,
    )
    span.finish(end=end)
    return SpanContext(span.trace_id, span.span_id, sampled=True)
