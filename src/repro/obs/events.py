"""Structured JSON event logging with trace-ID correlation.

:func:`log_event` is the stack's one structured logging call: drift events,
refit lifecycle, promote/rollback, chaos injections — anything that used to
be an ad-hoc print (or silent) emits one flat JSON record:

``{"ts": <epoch>, "kind": "...", "trace_id": "... or null", ...fields}``

``trace_id`` is filled from the active span automatically, so a drift event
fired while resolving an observation inside a traced ``fleet.tick`` (or a
promotion performed inside a traced admin request) correlates with its
trace in ``GET /trace`` — the log tells you *what* happened, the trace
tells you *where in the request* it happened.

Records go to a pluggable sink (default: one JSON line per record on
stderr) and into a bounded in-memory ring (:func:`recent_events`) the ops
surfaces read.  Every record is stamped with a process-wide monotonic
*sequence number*, so cursor-based consumers — the gateway's ``GET /tail``
live stream — can poll :func:`events_since` and receive each event exactly
once, in order, without a callback registry.  Disabled (the default),
:func:`log_event` is a single flag check — the hooks sprinkled through the
serving stack cost nothing.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.trace import current_span
from repro.utils.jsonsafe import json_ready

__all__ = [
    "configure_logging",
    "events_since",
    "log_event",
    "logging_enabled",
    "recent_events",
]

#: ``sink(record)`` — consumes one JSON-ready event record.
EventSink = Callable[[Dict[str, Any]], None]

def _stderr_sink(record: Dict[str, Any]) -> None:
    try:
        # Strict JSON even on the diagnostic sink: a NaN field would emit
        # bytes most log pipelines reject, so sanitize then forbid.
        text = json.dumps(
            json_ready(record, nan_to_none=True), default=str, allow_nan=False
        )
        sys.stderr.write(text + "\n")
    except (OSError, TypeError, ValueError):
        pass  # a closed stderr / hostile payload must never kill serving


_enabled = False
_lock = threading.Lock()
_ring: deque = deque(maxlen=1024)
_sink: Optional[EventSink] = _stderr_sink
_emitted = 0


def logging_enabled() -> bool:
    return _enabled


def configure_logging(
    enabled: Optional[bool] = None,
    sink: Optional[EventSink] = None,
    ring_size: Optional[int] = None,
) -> None:
    """(Re)configure structured logging.

    ``sink=False`` silences the external sink (ring only); ``sink=None``
    leaves it unchanged; any callable replaces it.  ``ring_size`` rebuilds
    the in-memory ring (dropping retained events).
    """
    global _enabled, _sink, _ring
    with _lock:
        if enabled is not None:
            _enabled = bool(enabled)
        if sink is not None:
            _sink = None if sink is False else sink
        if ring_size is not None:
            _ring = deque(maxlen=int(ring_size))


def log_event(kind: str, message: str = "", **fields: Any) -> Optional[Dict[str, Any]]:
    """Emit one structured event record; returns it (``None`` while disabled).

    ``kind`` is the machine-readable event name (``drift.coverage_breach``,
    ``serving.promote``, ``chaos.predict_fault``, ...); keyword fields land
    flat on the record.  The active trace ID (if any) is attached
    automatically.
    """
    if not _enabled:
        return None
    span = current_span()
    record: Dict[str, Any] = {
        "ts": time.time(),
        "kind": str(kind),
        "trace_id": span.trace_id if span is not None else None,
    }
    if message:
        record["message"] = str(message)
    record.update(fields)
    global _emitted
    with _lock:
        _emitted += 1
        _ring.append((_emitted, record))
        sink = _sink
    if sink is not None:
        sink(record)
    return record


def recent_events(limit: int = 100) -> List[Dict[str, Any]]:
    """The most recent ``limit`` event records, oldest first."""
    limit = int(limit)
    if limit <= 0:
        return []
    with _lock:
        events = [record for _, record in _ring]
    return events[-limit:]


def events_since(
    seq: int, limit: int = 256
) -> List[Tuple[int, Dict[str, Any]]]:
    """Ring records with sequence number > ``seq``, oldest first.

    The cursor read behind the live tail: a consumer remembers the last
    sequence number it saw and polls with it, receiving each retained event
    exactly once and in order.  Events that fell off the ring before the
    consumer caught up are simply gone (the ring is the bound); ``limit``
    caps one poll's batch.
    """
    seq = int(seq)
    with _lock:
        fresh = [(s, record) for s, record in _ring if s > seq]
    return fresh[: max(int(limit), 0)]


def last_event_seq() -> int:
    """Sequence number of the newest event (0 before any event)."""
    with _lock:
        return _ring[-1][0] if _ring else _emitted


def events_emitted() -> int:
    """Total events emitted since process start (monotonic counter)."""
    with _lock:
        return _emitted
