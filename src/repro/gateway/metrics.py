"""Prometheus text exposition for the gateway's ``GET /metrics`` endpoint.

Three layers feed one scrape, rendered in the text format (version 0.0.4)
every Prometheus-compatible collector understands:

* **gateway counters** — per-route request/latency/error tracking collected
  by :class:`GatewayMetrics` as requests flow through the handler
  (``gateway_requests_total{route,code}``, a rolling-window latency summary
  with p50/p99 quantiles, in-flight gauge, uptime);
* **serving counters** — :attr:`InferenceServer.stats` flattened into
  ``repro_server_*`` / ``repro_cache_*`` series plus per-deployment
  ``repro_deployment_*{deployment,version}`` series;
* **fleet state** — per-stream rolling PICP (in percent) / MAE / RMSE /
  width gauges and per-kind event counters read from the live
  :class:`~repro.fleet.StreamFleet` (each event log counts its kinds as
  they are appended), plus fleet-level tick / event counters.

:func:`parse_prometheus_text` is the matching reader — the smoke tests and
the HTTP benchmark scrape ``/metrics`` and assert through it, so the emitted
text is guaranteed machine-parseable, not just eyeballable.
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import Counter, deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import events_emitted
from repro.obs.profiler import nearest_rank, profiler, profiling_enabled
from repro.obs.trace import trace_store, tracing_enabled

__all__ = ["GatewayMetrics", "render_prometheus", "parse_prometheus_text"]

#: Default cap on the number of streams exported as per-stream series; a
#: 10k-stream fleet must not turn one scrape into a cardinality bomb.
#: Overridable per gateway via a ``max_metric_streams`` attribute; series
#: dropped by the cap are counted in ``obs_dropped_series_total``.
MAX_METRIC_STREAMS = 256

#: Scalar ``InferenceServer.stats`` keys that are monotonic counters; the
#: remaining numeric scalars render as gauges.
_SERVER_COUNTER_KEYS = frozenset(
    {
        "requests_served",
        "batches_dispatched",
        "model_windows",
        "shadow_windows",
        "promotions",
        "rollbacks",
        "route_fallbacks",
        "shadow_errors",
        "stranded_requests",
    }
)
_CACHE_COUNTER_KEYS = frozenset({"hits", "misses", "evictions"})
_DEPLOYMENT_COUNTER_KEYS = frozenset(
    {"requests_served", "model_windows", "shadow_windows"}
)
#: Per-stream monitor-snapshot keys exported as ``repro_stream_<key>`` gauges.
_STREAM_METRIC_KEYS = (
    "coverage",
    "mean_width",
    "mae",
    "rmse",
    "winkler",
    "scored_steps",
    "steps",
)


class GatewayMetrics:
    """Thread-safe request/latency/error accounting for the HTTP plane.

    Latencies are kept per route in a bounded ring (`latency_window` most
    recent samples) for the quantile readout, alongside exact running
    count/sum — the summary's ``_count`` / ``_sum`` series stay monotonic
    even after the ring starts evicting.
    """

    def __init__(self, latency_window: int = 2048) -> None:
        if latency_window < 1:
            raise ValueError("latency_window must be >= 1")
        self.latency_window = int(latency_window)
        self._lock = threading.Lock()
        self._requests: Counter = Counter()          # (route, code) -> count
        self._latencies: Dict[str, deque] = {}       # route -> recent seconds
        self._latency_count: Counter = Counter()     # route -> total samples
        self._latency_sum: Dict[str, float] = {}     # route -> total seconds
        self._started = time.monotonic()

    def record(self, route: str, code: int, seconds: float) -> None:
        """Fold one finished request into the counters."""
        route, code, seconds = str(route), int(code), float(seconds)
        with self._lock:
            self._requests[(route, code)] += 1
            ring = self._latencies.get(route)
            if ring is None:
                ring = self._latencies[route] = deque(maxlen=self.latency_window)
            ring.append(seconds)
            self._latency_count[route] += 1
            self._latency_sum[route] = self._latency_sum.get(route, 0.0) + seconds

    def quantile(self, route: str, q: float) -> float:
        """Rolling-window latency quantile (seconds; NaN with no samples)."""
        with self._lock:
            return nearest_rank(self._latencies.get(route, ()), q)

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready counters (per-route requests by code, error total)."""
        with self._lock:
            requests: Dict[str, Dict[str, int]] = {}
            for (route, code), count in sorted(self._requests.items()):
                requests.setdefault(route, {})[str(code)] = count
            errors = sum(
                count for (_, code), count in self._requests.items() if code >= 400
            )
            total = sum(self._requests.values())
        return {
            "requests_total": total,
            "errors_total": errors,
            "requests": requests,
            "uptime_seconds": self.uptime_seconds,
        }

    def routes(self) -> List[str]:
        with self._lock:
            return sorted({route for route, _ in self._requests})


# --------------------------------------------------------------------------- #
# Text exposition
# --------------------------------------------------------------------------- #
def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _escape_help(text: str) -> str:
    # HELP lines escape backslash and newline only (quotes stay literal).
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: Any) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _sample(name: str, labels: Optional[Dict[str, Any]], value: Any) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


#: Exposition-format grammar for metric names (label names drop the colon).
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class _Exposition:
    """Accumulates samples *grouped by family*, in first-seen family order.

    The text format requires every line of one metric family to form a
    single uninterrupted group, so per-deployment / per-stream loops that
    naturally produce ``family_a{x=1} family_b{x=1} family_a{x=2}`` would
    emit an illegal scrape if lines were appended in call order.  Samples
    are therefore buffered per family and concatenated at :meth:`text`
    time, with HELP/TYPE emitted exactly once ahead of each group.
    ``_count``/``_sum`` summary series register under their base family
    via the explicit ``family`` argument of :meth:`sample`.
    """

    def __init__(self) -> None:
        self._families: Dict[str, Dict[str, Any]] = {}

    def header(self, name: str, kind: str, help_text: str) -> None:
        if name not in self._families:
            if not _METRIC_NAME_RE.match(name):
                raise ValueError(f"illegal Prometheus metric family name: {name!r}")
            self._families[name] = {
                "kind": kind,
                "help": _escape_help(help_text),
                "samples": [],
            }

    def sample(
        self,
        family: str,
        name: str,
        labels: Optional[Dict[str, Any]],
        value: Any,
    ) -> None:
        """Append one sample line (``name`` may be ``<family>_count``/``_sum``)."""
        if family not in self._families:
            raise KeyError(f"header() must declare family {family!r} before samples")
        if name != family and not _METRIC_NAME_RE.match(name):
            raise ValueError(f"illegal Prometheus series name: {name!r}")
        self._families[family]["samples"].append(_sample(name, labels, value))

    def add(
        self,
        name: str,
        kind: str,
        help_text: str,
        value: Any,
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.header(name, kind, help_text)
        self.sample(name, name, labels, value)

    def text(self) -> str:
        lines: List[str] = []
        for name, family in self._families.items():
            lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['kind']}")
            lines.extend(family["samples"])
        return "\n".join(lines) + "\n"


def _render_gateway(exp: _Exposition, gateway: Any) -> None:
    metrics: GatewayMetrics = gateway.metrics
    with metrics._lock:
        requests = sorted(metrics._requests.items())
        latency_counts = dict(metrics._latency_count)
        latency_sums = dict(metrics._latency_sum)
    for (route, code), count in requests:
        exp.add(
            "gateway_requests_total",
            "counter",
            "HTTP requests handled, by route and status code.",
            count,
            {"route": route, "code": code},
        )
    for route in sorted(latency_counts):
        exp.header(
            "gateway_request_latency_seconds",
            "summary",
            "Per-route request latency (rolling-window quantiles).",
        )
        for q in (0.5, 0.99):
            exp.sample(
                "gateway_request_latency_seconds",
                "gateway_request_latency_seconds",
                {"route": route, "quantile": str(q)},
                metrics.quantile(route, q),
            )
        exp.sample(
            "gateway_request_latency_seconds",
            "gateway_request_latency_seconds_count",
            {"route": route},
            latency_counts[route],
        )
        exp.sample(
            "gateway_request_latency_seconds",
            "gateway_request_latency_seconds_sum",
            {"route": route},
            latency_sums[route],
        )
    exp.add(
        "gateway_inflight_requests",
        "gauge",
        "Requests currently being handled.",
        gateway.inflight_requests,
    )
    exp.add(
        "gateway_uptime_seconds",
        "gauge",
        "Seconds since the gateway metrics started.",
        metrics.uptime_seconds,
    )


def _render_server(exp: _Exposition, stats: Dict[str, Any]) -> None:
    deployments = stats.get("deployments") or {}
    default_route = stats.get("default_route")
    for key, value in stats.items():
        if key in ("deployments", "default_route") or isinstance(value, (dict, str)):
            continue
        if key.startswith("cache_"):
            short = key[len("cache_"):]
            kind = "counter" if short in _CACHE_COUNTER_KEYS else "gauge"
            name = f"repro_cache_{short}" + ("_total" if kind == "counter" else "")
            exp.add(name, kind, f"Shared prediction cache {short}.", value)
            continue
        kind = "counter" if key in _SERVER_COUNTER_KEYS else "gauge"
        name = f"repro_server_{key}" + ("_total" if kind == "counter" else "")
        exp.add(name, kind, f"Inference server {key}.", value)
    if default_route is not None:
        exp.add(
            "repro_server_default_route",
            "gauge",
            "1 on the deployment currently holding the default route.",
            1,
            {"deployment": default_route},
        )
    for name, dep_stats in sorted(deployments.items()):
        labels = {"deployment": name, "version": dep_stats.get("version", "")}
        for key, value in dep_stats.items():
            if key == "version" or isinstance(value, (dict, str)):
                continue
            kind = "counter" if key in _DEPLOYMENT_COUNTER_KEYS else "gauge"
            metric = f"repro_deployment_{key}" + ("_total" if kind == "counter" else "")
            exp.add(metric, kind, f"Per-deployment {key}.", value, labels)


def _render_fleet(exp: _Exposition, fleet: Any, max_streams: int = MAX_METRIC_STREAMS) -> int:
    """Render fleet series; returns the number of capped per-stream series.

    Reads the live fleet: event counters are the logs' per-kind counts, so
    a scrape never walks an event history.  At most ``max_streams`` streams
    (sorted by name, so the exported set is stable scrape-to-scrape) get
    per-stream series; fleet-level aggregates always render in full.
    """
    dropped_series = 0
    exp.add("repro_fleet_tick", "counter", "Fleet ticks completed.", fleet._tick)
    exp.add(
        "repro_fleet_streams",
        "gauge",
        "Streams registered in the fleet.",
        len(fleet.streams),
    )
    for kind, count in sorted(fleet.event_log.counts.items()):
        exp.add(
            "repro_fleet_events_total",
            "counter",
            "Fleet-level events (spatial incidents, refit coordination), by kind.",
            count,
            {"kind": kind},
        )
    for index, (name, stream) in enumerate(sorted(fleet.streams.items())):
        core = stream.core
        if index >= max_streams:
            # Count exactly the series this stream would have emitted: step,
            # warmed_up, every monitor gauge and one counter per event kind.
            dropped_series += 2 + len(_STREAM_METRIC_KEYS) + len(core.event_log.counts)
            continue
        labels = {"stream": name}
        exp.add(
            "repro_stream_step",
            "counter",
            "Observations ingested by the stream.",
            core.step,
            labels,
        )
        exp.add(
            "repro_stream_warmed_up",
            "gauge",
            "1 once the stream's history window is full.",
            1 if core.warmed_up else 0,
            labels,
        )
        stream_metrics = core.monitor.snapshot()
        for key in _STREAM_METRIC_KEYS:
            exp.add(
                f"repro_stream_{key}",
                "gauge",
                f"Rolling {key} of the stream's monitor window.",
                stream_metrics[key],
                labels,
            )
        for kind, count in sorted(core.event_log.counts.items()):
            exp.add(
                "repro_stream_events_total",
                "counter",
                "Per-stream drift/lifecycle events, by kind.",
                count,
                {"stream": name, "kind": kind},
            )
    if fleet.coordinator is not None:
        refits = fleet.coordinator.stats()
        exp.add(
            "repro_fleet_refit_triggers_total",
            "counter",
            "Coordinated region refits triggered.",
            refits["triggers"],
        )
        exp.add(
            "repro_fleet_refits_completed_total",
            "counter",
            "Coordinated region refits completed.",
            refits["refits_completed"],
        )
    if fleet.spatial is not None:
        exp.add(
            "repro_fleet_spatial_incidents_total",
            "counter",
            "Spatial incidents fired by the corridor-graph aggregator.",
            fleet.spatial.stats()["incidents"],
        )
    return dropped_series


def _render_obs(exp: _Exposition, dropped_series: int) -> None:
    """The observability layer's own series: phase timings + trace/store state."""
    exp.add(
        "obs_tracing_enabled",
        "gauge",
        "1 while request tracing is enabled.",
        1 if tracing_enabled() else 0,
    )
    exp.add(
        "obs_profiling_enabled",
        "gauge",
        "1 while phase profiling is enabled.",
        1 if profiling_enabled() else 0,
    )
    exp.add(
        "obs_dropped_series_total",
        "counter",
        "Per-stream series dropped from this scrape by the cardinality cap.",
        dropped_series,
    )
    exp.add(
        "obs_events_emitted_total",
        "counter",
        "Structured log events emitted since process start.",
        events_emitted(),
    )
    store_stats = trace_store().stats
    exp.add(
        "obs_trace_spans_stored",
        "gauge",
        "Finished spans currently retained in the trace ring.",
        store_stats["spans_stored"],
    )
    exp.add(
        "obs_trace_spans_added_total",
        "counter",
        "Finished spans accepted by the trace ring since process start.",
        store_stats["spans_added"],
    )
    exp.add(
        "obs_trace_spans_evicted_total",
        "counter",
        "Spans evicted from the trace ring by its capacity bound.",
        store_stats["spans_evicted"],
    )
    for phase, entry in profiler().snapshot().items():
        exp.header(
            "repro_phase_seconds",
            "summary",
            "Per-phase tick/serving timings (rolling-window quantiles).",
        )
        for q, key in (("0.5", "p50_ms"), ("0.99", "p99_ms")):
            exp.sample(
                "repro_phase_seconds",
                "repro_phase_seconds",
                {"phase": phase, "quantile": q},
                entry[key] / 1e3,
            )
        exp.sample(
            "repro_phase_seconds",
            "repro_phase_seconds_count",
            {"phase": phase},
            entry["count"],
        )
        exp.sample(
            "repro_phase_seconds",
            "repro_phase_seconds_sum",
            {"phase": phase},
            entry["total_s"],
        )


#: Numeric encoding of the alert lifecycle for ``repro_slo_alert_state``.
_ALERT_STATE_CODES = {"inactive": 0, "pending": 1, "firing": 2, "resolved": 3}


def _render_slo(exp: _Exposition, engine: Any) -> None:
    """The SLO engine's families: burn rates, alert states, ``ALERTS``.

    Follows the Prometheus convention of an ``ALERTS{alertname, alertstate}``
    series with value 1 per pending/firing alert, plus gauges for the raw
    burn-rate inputs so dashboards can plot the approach to a breach.
    """
    for alert in engine.alerts():
        labels = {"slo": alert.spec.name, "series": alert.series}
        for window, burn in (("long", alert.burn_long), ("short", alert.burn_short)):
            exp.add(
                "repro_slo_burn_rate",
                "gauge",
                "Error-budget consumption multiple per evaluation window.",
                burn,
                dict(labels, window=window),
            )
        exp.add(
            "repro_slo_error_budget_remaining",
            "gauge",
            "1 minus the long-window burn rate (negative while over-burning).",
            1.0 - alert.burn_long,
            labels,
        )
        exp.add(
            "repro_slo_alert_state",
            "gauge",
            "Alert lifecycle: 0 inactive, 1 pending, 2 firing, 3 resolved.",
            _ALERT_STATE_CODES.get(alert.state, 0),
            dict(labels, severity=alert.spec.severity),
        )
        if alert.state in ("pending", "firing"):
            exp.add(
                "ALERTS",
                "gauge",
                "Active SLO alerts (Prometheus ALERTS convention).",
                1,
                {
                    "alertname": alert.spec.name,
                    "alertstate": alert.state,
                    "series": alert.series,
                    "severity": alert.spec.severity,
                },
            )
    for (slo, state), count in sorted(engine.transition_counts().items()):
        exp.add(
            "repro_slo_transitions_total",
            "counter",
            "Alert state transitions performed, by objective and new state.",
            count,
            {"slo": slo, "state": state},
        )
    stats = engine.stats
    exp.add(
        "repro_slo_evaluations_total",
        "counter",
        "SLO engine evaluation passes completed.",
        engine.evaluations,
    )
    exp.add(
        "repro_slo_history_samples",
        "gauge",
        "Tick samples the SLO engine currently retains for its windows.",
        stats["samples"],
    )
    exp.add(
        "repro_slo_history_source_errors_total",
        "counter",
        "Metric source poll failures the SLO engine swallowed.",
        stats["source_errors"],
    )


def render_prometheus(gateway: Any) -> str:
    """Render one scrape of the gateway (and the stack behind it) as text."""
    exp = _Exposition()
    _render_gateway(exp, gateway)
    dropped_series = 0
    server = gateway.server
    fleet = getattr(gateway, "fleet", None)
    if fleet is not None:
        dropped_series = _render_fleet(
            exp,
            fleet,
            max_streams=getattr(gateway, "max_metric_streams", MAX_METRIC_STREAMS),
        )
        if hasattr(fleet.server, "stats"):
            server = fleet.server
    _render_server(exp, server.stats)
    _render_obs(exp, dropped_series)
    slo = getattr(gateway, "slo", None)
    if slo is not None:
        _render_slo(exp, slo)
    return exp.text()


# --------------------------------------------------------------------------- #
# Parsing (tests + benchmark scrapes)
# --------------------------------------------------------------------------- #
def _parse_labels(text: str) -> Tuple[Tuple[str, str], ...]:
    labels: List[Tuple[str, str]] = []
    index = 0
    while index < len(text):
        eq = text.index("=", index)
        key = text[index:eq].strip().lstrip(",").strip()
        assert text[eq + 1] == '"', f"malformed label value in {text!r}"
        value_chars: List[str] = []
        cursor = eq + 2
        while text[cursor] != '"':
            if text[cursor] == "\\":
                cursor += 1
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(text[cursor], text[cursor])
                )
            else:
                value_chars.append(text[cursor])
            cursor += 1
        labels.append((key, "".join(value_chars)))
        index = cursor + 1
    return tuple(sorted(labels))


def parse_prometheus_text(
    text: str,
) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse text exposition into ``{metric: {sorted label tuple: value}}``.

    Raises ``ValueError`` on any line that is neither a comment, blank, nor a
    well-formed sample — the smoke tests run every scrape through this, so a
    formatting regression in the renderer fails loudly.  Beyond line shape,
    two structural rules of the format are enforced: a family's ``# TYPE``
    must precede its first sample, and all samples of one family must form
    a single uninterrupted group (``_count``/``_sum`` series count toward
    their declared summary/histogram family).
    """
    series: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    types: Dict[str, str] = {}
    sampled_families: set = set()
    previous_family: Optional[str] = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[2] in types:
                    raise ValueError(f"duplicate TYPE line for family {parts[2]!r}")
                types[parts[2]] = parts[3]
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            labels = _parse_labels(label_text)
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed sample line: {line!r}")
            name, value_text = parts
            labels = ()
        name = name.strip()
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"malformed metric name in line: {line!r}")
        try:
            value = float(value_text.strip().replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as error:
            raise ValueError(f"malformed value in line: {line!r}") from error
        family = name
        for suffix in ("_count", "_sum", "_bucket"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) in ("summary", "histogram"):
                family = base
                break
        if types:
            # Only enforce structure on expositions that declare TYPE lines
            # (hand-rolled header-less fixtures stay parseable).
            if family != previous_family:
                if family in sampled_families:
                    raise ValueError(
                        f"samples of family {family!r} are not contiguous: the "
                        "family resumes after another family's samples"
                    )
                sampled_families.add(family)
                previous_family = family
        series.setdefault(name, {})[labels] = value
    return series
