"""Request micro-batching queue.

Single-window requests arriving from many clients are collected into
micro-batches before hitting the model: the vectorized engine's cost per
window drops sharply with batch size, so trading a small queueing delay
(``max_wait_ms``) for larger forwards raises throughput substantially.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.obs.trace import SpanContext


@dataclass
class InferenceRequest:
    """A single history window awaiting prediction.

    ``primary`` names the deployment answering the request (``None`` = the
    pool's default route, resolved when the batch snapshots its models);
    ``shadows`` name deployments that see a mirrored copy without affecting
    the response.  Single-model servers leave both at their defaults.
    ``trace`` is the submitter's captured span context — the cross-thread
    handoff that lets the batch worker parent its spans under the HTTP
    handler (or fleet tick) that enqueued the request.
    """

    window: np.ndarray  # (history, num_nodes)
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    key: Optional[Any] = None
    primary: Optional[str] = None
    shadows: Tuple[str, ...] = ()
    trace: Optional[SpanContext] = None


class _Shutdown:
    """Sentinel closing the queue."""


class MicroBatcher:
    """Blocking queue that groups incoming requests into micro-batches.

    ``next_batch`` blocks until at least one request is available, then keeps
    draining the queue until either ``max_batch_size`` requests are collected
    or ``max_wait_ms`` has elapsed since the first one — the classic
    size-or-deadline micro-batching policy of production model servers.

    Requests that arrive together (:meth:`put_group`) are one queue item, so
    the dispatcher never sees half of them.  A group is cut into full
    batches whatever ``max_wait_ms`` is; only its last, partial batch waits
    for more requests.
    """

    def __init__(self, max_batch_size: int = 64, max_wait_ms: float = 2.0) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        # Items: one InferenceRequest, a list of them (a group), or _Shutdown.
        self._queue: "queue.Queue" = queue.Queue()
        # The rest of a group cut at max_batch_size; only next_batch's
        # (single) consumer thread touches it.
        self._carry: List[InferenceRequest] = []
        self._closed = threading.Event()

    def submit(
        self,
        window: np.ndarray,
        key: Optional[Any] = None,
        primary: Optional[str] = None,
        shadows: Tuple[str, ...] = (),
        trace: Optional[SpanContext] = None,
    ) -> Future:
        """Enqueue one window; returns a future resolved by the dispatcher."""
        if self._closed.is_set():
            raise RuntimeError("batcher is closed")
        request = InferenceRequest(
            window=np.asarray(window, dtype=np.float64),
            key=key,
            primary=primary,
            shadows=tuple(shadows),
            trace=trace,
        )
        self._queue.put(request)
        return request.future

    def put_group(self, requests: List[InferenceRequest]) -> None:
        """Enqueue requests that arrived together as one queue operation.

        The batcher takes the list over (it becomes a batch, or part of
        one); the caller must not reuse it.
        """
        if self._closed.is_set():
            raise RuntimeError("batcher is closed")
        if requests:
            self._queue.put(requests)

    @property
    def depth(self) -> int:
        """Requests currently waiting to be batched (approximate)."""
        with self._queue.mutex:
            queued = sum(
                len(item) if isinstance(item, list) else 1
                for item in self._queue.queue
                if not isinstance(item, _Shutdown)
            )
        return queued + len(self._carry)

    def close(self) -> None:
        """Wake up the dispatcher and refuse further submissions."""
        self._closed.set()
        self._queue.put(_Shutdown())

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def next_batch(self, poll_timeout: float = 0.1) -> Optional[List[InferenceRequest]]:
        """Collect the next micro-batch; ``None`` after :meth:`close`.

        ``poll_timeout`` bounds how long the call blocks waiting for the
        *first* request; once one arrives the batch closes after at most
        ``max_wait_ms`` more milliseconds.  The rest of a group that
        overfills the batch opens the next one, without waiting.
        """
        batch, self._carry = self._carry, []
        if not batch:
            try:
                first = self._queue.get(timeout=poll_timeout)
            except queue.Empty:
                return [] if not self._closed.is_set() else None
            if isinstance(first, _Shutdown):
                return None
            batch = _as_requests(first)
        deadline = time.perf_counter() + self.max_wait_ms / 1000.0
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if isinstance(item, _Shutdown):
                # Preserve the shutdown signal for the next next_batch() call.
                self._queue.put(item)
                break
            batch.extend(_as_requests(item))
        if len(batch) > self.max_batch_size:
            self._carry = batch[self.max_batch_size :]
            del batch[self.max_batch_size :]
        return batch


def _as_requests(item: Any) -> List[InferenceRequest]:
    """A queue item as a list of requests (a group's list is the batcher's own)."""
    return item if isinstance(item, list) else [item]
