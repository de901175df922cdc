"""Spans around calls into each layer, recorded from the benchmark's side.

The program is never edited: :meth:`Tracer.install` swaps a timing wrapper
in for each public function named in :data:`LAYER_FUNCTIONS` (and for
``InferenceServer.submit_many``, whose futures it also follows), and
:meth:`Tracer.uninstall` puts the originals back.  Spans are kept in
memory as ``(name, thread id, start, end, size)`` tuples; ``list.append``
is atomic under the interpreter lock, so worker threads record without a
lock.

Layer names follow the program's packages: ``streaming`` (per-stream
``StreamCore``), ``serving`` (the micro-batched server), ``fleet``,
``obs`` (SLO evaluation and the Prometheus renderer), ``core`` (the MC
forward, timed by the benchmark's own predict function) and ``nn`` (model
internals).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, int, float, float, int]

#: ``(module, attribute path, span name)`` of every wrapped function.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.streaming.shard", "StreamCore.resolve", "streaming.resolve"),
    ("repro.streaming.shard", "StreamCore.detect", "streaming.detect"),
    ("repro.streaming.shard", "StreamCore.append", "streaming.append"),
    ("repro.streaming.shard", "StreamCore.window", "streaming.window"),
    ("repro.streaming.shard", "StreamCore.record", "streaming.record"),
    ("repro.streaming.shard", "StreamCore.get_state", "streaming.get_state"),
    ("repro.streaming.shard", "StreamCore.set_state", "streaming.set_state"),
    ("repro.fleet.runner", "StreamFleet.tick", "fleet.tick"),
    ("repro.obs.slo", "SLOEngine.step", "obs.slo_step"),
    ("repro.gateway.gateway", "render_prometheus", "obs.render"),
    ("repro.models.agcrn", "AGCRNCell.forward", "nn.cell"),
    ("repro.nn.graph", "AVWGCN.forward", "nn.avwgcn"),
    ("repro.nn.dropout", "Dropout.forward", "nn.dropout"),
    ("repro.tensor.functional", "cat", "nn.cat"),
)

#: Spans on the thread that calls ``StreamFleet.tick``, inside the tick.
#: They never nest, so together with the residual they add up to the tick.
TICK_PHASES: Tuple[Tuple[str, str], ...] = (
    ("streaming.resolve", "streaming.resolve_ms"),
    ("streaming.detect", "streaming.detect_ms"),
    ("streaming.append", "streaming.append_ms"),
    ("streaming.window", "streaming.window_ms"),
    ("streaming.record", "streaming.record_ms"),
    ("serving.submit", "serving.submit_ms"),
    ("serving.wait", "fleet.wait_ms"),
    ("obs.slo_step", "obs.slo_step_ms"),
)


class _TimedFuture:
    """A future whose blocking ``result`` is recorded as a ``serving.wait`` span."""

    __slots__ = ("_future", "_spans")

    def __init__(self, future: Any, spans: List[Span]) -> None:
        self._future = future
        self._spans = spans

    def result(self, timeout: Optional[float] = None) -> Any:
        start = time.perf_counter()
        try:
            return self._future.result(timeout=timeout)
        finally:
            self._spans.append(
                ("serving.wait", threading.get_ident(), start, time.perf_counter(), 1)
            )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._future, name)


class Tracer:
    """Installs and removes the layer wrappers; owns the recorded spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        for module_name, path, span_name in LAYER_FUNCTIONS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._timed(owner.__dict__[attr], span_name))
        from repro.serving.server import InferenceServer

        self._patch(
            InferenceServer,
            "submit_many",
            self._timed_submit(InferenceServer.__dict__["submit_many"]),
        )

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, original: Callable, name: str) -> Callable:
        spans = self.spans

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((name, threading.get_ident(), start, time.perf_counter(), 1))

        return timed

    def _timed_submit(self, original: Callable) -> Callable:
        """``serving.submit`` span per call, ``serving.request`` span per window.

        A request span runs from the start of the submit call to the moment
        its future is done; its size is the number of windows submitted
        together, which tells a fleet tick's windows from a single predict.
        """
        spans = self.spans

        @functools.wraps(original)
        def timed_submit(server: Any, windows: Any, *args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            tid = threading.get_ident()
            try:
                futures = original(server, windows, *args, **kwargs)
            finally:
                spans.append(("serving.submit", tid, start, time.perf_counter(), 1))
            size = len(futures)

            def done(_future: Any) -> None:
                spans.append(("serving.request", tid, start, time.perf_counter(), size))

            for future in futures:
                future.add_done_callback(done)
            return [_TimedFuture(future, spans) for future in futures]

        return timed_submit


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


# ---------------------------------------------------------------------- #
# Reading spans back
# ---------------------------------------------------------------------- #
def by_name(spans: Sequence[Span], name: str) -> List[Span]:
    return [span for span in spans if span[0] == name]


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [span[3] - span[2] for span in spans if span[0] == name]


def tick_decomposition(spans: Sequence[Span]) -> Dict[str, Any]:
    """Split every traced tick into its exclusive tick-thread phases.

    For each ``fleet.tick`` span, the phase spans recorded on the same
    thread inside it are summed per phase; ``fleet.other_ms`` is the tick
    minus those sums.  Returns the per-tick means together with the
    self-checks: phase spans that overlap each other or stick out of their
    tick, and ticks whose residual came out negative.
    """
    phase_names = dict(TICK_PHASES)
    ticks = sorted(by_name(spans, "fleet.tick"), key=lambda span: span[2])
    by_thread: Dict[int, List[Span]] = {}
    for span in spans:
        if span[0] in phase_names:
            by_thread.setdefault(span[1], []).append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda span: span[2])
    totals = {metric: 0.0 for metric in phase_names.values()}
    other_total = tick_total = 0.0
    overlaps = negative = 0
    for _, tid, start, end, _ in ticks:
        inside = [s for s in by_thread.get(tid, []) if s[2] >= start and s[2] < end]
        previous_end = start
        phase_sum = 0.0
        for name, _, s_start, s_end, _ in inside:
            if s_start < previous_end or s_end > end:
                overlaps += 1
            previous_end = max(previous_end, s_end)
            totals[phase_names[name]] += s_end - s_start
            phase_sum += s_end - s_start
        other = (end - start) - phase_sum
        if other < 0.0:
            negative += 1
        other_total += other
        tick_total += end - start
    count = max(len(ticks), 1)
    result: Dict[str, Any] = {
        metric: total / count * 1e3 for metric, total in totals.items()
    }
    result["fleet.other_ms"] = other_total / count * 1e3
    result["fleet.tick_ms"] = tick_total / count * 1e3
    result["ticks"] = len(ticks)
    result["overlapping_spans"] = overlaps
    result["negative_residuals"] = negative
    return result
