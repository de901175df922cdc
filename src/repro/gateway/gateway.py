"""The HTTP serving plane: a stdlib gateway over the serving/fleet stack.

:class:`Gateway` puts a :class:`http.server.ThreadingHTTPServer` front end on
an :class:`~repro.serving.InferenceServer` (and optionally a
:class:`~repro.fleet.StreamFleet`), turning the in-process library into a
deployable service:

* **data plane** — ``POST /predict`` routes keyed windows through the
  server's router and micro-batcher (concurrent HTTP clients coalesce into
  batched model calls exactly like in-process ``submit_many`` traffic);
  ``POST /observe`` feeds fleet streams their observation rows, driving the
  full predict → observe → calibrate online loop over the wire;
* **ops plane** — ``GET /snapshot`` (the fleet's JSON snapshot),
  ``GET /metrics`` (Prometheus text exposition), ``GET /healthz`` (503
  with detail while a page-severity SLO alert fires), ``GET /alerts``
  (SLO alert state + history) and ``GET /tail`` (live SSE event stream
  with heartbeats and trace-ID correlation);
* **admin plane** — ``POST /admin/deploy`` / ``/admin/promote`` /
  ``/admin/rollback`` / ``/admin/routes`` (+ ``GET /admin/routes``), so a
  full canary ramp (deploy → traffic split → promote → rollback) is operable
  with curl, no Python access needed, under the pool's zero-drop semantics;
  optionally guarded (with ``/tail``) by a bearer ``admin_token``.

Error taxonomy at the boundary: malformed bodies are ``400``, a missing or
wrong bearer token on a guarded plane is ``401`` with ``WWW-Authenticate``,
unknown deployments / streams / paths are ``404``, wrong methods are
``405``, conflicting admin actions (rollback with no history) are ``409``,
and a stopped or shutting-down server is ``503`` with a ``Retry-After``
header.  Responses never carry stack traces — errors are compact JSON
records.

Lifecycle: ``start(port=0)`` binds an ephemeral port (tests run many
gateways concurrently); ``stop(timeout)`` is bounded end to end — it stops
accepting connections, shuts the inference server down via its bounded
:meth:`~repro.serving.InferenceServer.stop` (stranded futures fail with
``ServerStopped``, waking any handler blocked on them into a 503), then
drains in-flight handlers until the deadline.
"""

from __future__ import annotations

import hmac
import json
import os
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.gateway.metrics import GatewayMetrics, render_prometheus
from repro.gateway.sse import EventTail
from repro.obs.profiler import profiler, profiling_enabled
from repro.obs.slo import gateway_source
from repro.obs.trace import start_span, start_trace, trace_store, tracing_enabled
from repro.serving.router import KeyRouter, Router, TrafficSplitRouter
from repro.serving.server import ServerStopped
from repro.utils.jsonsafe import json_ready

__all__ = ["ApiError", "Gateway"]

#: ``Retry-After`` seconds advertised with every 503.
_RETRY_AFTER = 1


class ApiError(Exception):
    """One HTTP-boundary failure: status code + client-safe message."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[int] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.retry_after = retry_after
        self.headers = dict(headers) if headers else None


def _bad_request(message: str) -> ApiError:
    return ApiError(400, message)


def _unavailable(message: str) -> ApiError:
    return ApiError(503, message, retry_after=_RETRY_AFTER)


def _parse_window(raw: Any, label: str = "window") -> np.ndarray:
    """Validate one JSON window into a float ``(history, nodes)`` array."""
    try:
        window = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        raise _bad_request(f"{label} must be a numeric (history, nodes) matrix")
    if window.ndim != 2 or window.size == 0:
        raise _bad_request(
            f"{label} must be a non-empty 2-D (history, nodes) matrix, "
            f"got shape {window.shape}"
        )
    return window


class Gateway:
    """HTTP front end over one inference server (plus an optional fleet).

    Parameters
    ----------
    server:
        The :class:`~repro.serving.InferenceServer` answering ``/predict``
        and the admin verbs.  :meth:`start` starts it if needed; whether
        :meth:`stop` also stops it is the ``stop_server`` argument there.
    fleet:
        Optional :class:`~repro.fleet.StreamFleet` behind ``/observe`` and
        ``/snapshot``.  Fleet ticks are serialized behind a gateway lock, so
        concurrent ``/observe`` posts never interleave one tick.
    host:
        Bind address; the default loopback keeps test gateways private.
    request_timeout:
        Bound on one ``/predict`` waiting for its prediction future.
    max_body_bytes:
        Reject request bodies larger than this with ``400`` (a malformed
        Content-Length can otherwise stall a handler thread on a read).
    model_resolver:
        Optional ``resolver(spec) -> model`` hook for ``POST /admin/deploy``
        bodies carrying ``{"model": spec}`` — how deployments whose models
        are not on-disk checkpoints (registry entries, test doubles) are
        deployed over HTTP.  Checkpoint-directory deploys need no resolver.
    significance:
        Miscoverage level of the Gaussian fallback interval attached to
        ``/predict`` responses when a model carries no native bounds.
    max_metric_streams:
        Cardinality cap on per-stream series in ``GET /metrics``; streams
        beyond it are dropped from the scrape (counted in
        ``obs_dropped_series_total``), keeping huge fleets scrapeable.
    slo:
        Optional :class:`~repro.obs.slo.SLOEngine`.  Attaching one lights
        up ``GET /alerts``, the ``ALERTS`` / ``repro_slo_*`` families in
        ``GET /metrics``, and degrades ``/healthz`` to 503-with-detail
        while a page-severity alert fires; the gateway registers itself as
        the engine's ``gateway`` metrics source (request totals, per-route
        p99).  Sampling and evaluation stay with whoever steps the engine
        (usually the fleet, via :meth:`StreamFleet.attach_slo`), once per
        tick.
    admin_token:
        Optional bearer token guarding the admin plane (``/admin/*``) and
        the live tail (``/tail``): requests must carry
        ``Authorization: Bearer <token>`` or they get ``401``.  Defaults
        to the ``REPRO_ADMIN_TOKEN`` environment variable; empty/unset
        leaves those planes open (the local-dev default).
    """

    #: ``(method, path) -> handler method name``: names, not bound methods,
    #: so a gateway ties no reference cycle through its own route table.
    _ROUTES: Dict[Tuple[str, str], str] = {
        ("POST", "/predict"): "_handle_predict",
        ("POST", "/observe"): "_handle_observe",
        ("GET", "/snapshot"): "_handle_snapshot",
        ("GET", "/metrics"): "_handle_metrics",
        ("GET", "/healthz"): "_handle_healthz",
        ("GET", "/trace"): "_handle_trace",
        ("GET", "/profile"): "_handle_profile",
        ("GET", "/alerts"): "_handle_alerts",
        ("GET", "/tail"): "_handle_tail",
        ("POST", "/admin/deploy"): "_handle_deploy",
        ("POST", "/admin/promote"): "_handle_promote",
        ("POST", "/admin/rollback"): "_handle_rollback",
        ("GET", "/admin/routes"): "_handle_routes_get",
        ("POST", "/admin/routes"): "_handle_routes_post",
    }

    def __init__(
        self,
        server: Any,
        fleet: Optional[Any] = None,
        host: str = "127.0.0.1",
        request_timeout: float = 30.0,
        max_body_bytes: int = 16 << 20,
        model_resolver: Optional[Callable[[Any], Any]] = None,
        significance: float = 0.05,
        max_metric_streams: int = 256,
        slo: Optional[Any] = None,
        admin_token: Optional[str] = None,
    ) -> None:
        self.server = server
        self.fleet = fleet
        self.host = str(host)
        self.request_timeout = float(request_timeout)
        self.max_body_bytes = int(max_body_bytes)
        self.model_resolver = model_resolver
        self.significance = float(significance)
        self.max_metric_streams = int(max_metric_streams)
        self.slo = slo
        if admin_token is None:
            admin_token = os.environ.get("REPRO_ADMIN_TOKEN", "")
        self.admin_token = str(admin_token) or None
        self.metrics = GatewayMetrics()
        if slo is not None:
            slo.add_source("gateway", gateway_source(self))
        self._fleet_lock = threading.Lock()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._shutting_down = False
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> Optional[int]:
        """Bound TCP port (the ephemeral one when started with ``port=0``)."""
        return self._httpd.server_address[1] if self._httpd is not None else None

    @property
    def url(self) -> str:
        if self._httpd is None:
            raise RuntimeError("gateway is not running; call start() first")
        return f"http://{self.host}:{self.port}"

    @property
    def inflight_requests(self) -> int:
        with self._inflight_cond:
            return self._inflight

    def start(self, port: int = 0) -> "Gateway":
        """Bind and serve on a background thread; ``port=0`` = ephemeral.

        A gateway restarts after ``stop(stop_server=False)`` only: the default
        ``stop()`` also stops the inference server, which cannot start again,
        so this raises ``RuntimeError`` and a new server is needed.
        """
        if self._httpd is not None:
            return self
        if hasattr(self.server, "start"):
            self.server.start()  # idempotent on a running server
        httpd = ThreadingHTTPServer((self.host, int(port)), _Handler)
        httpd.gateway = self  # what handlers serve; stop() drops the httpd
        httpd.daemon_threads = True
        # Never join handler threads in server_close(): stop() already does a
        # bounded drain, and an unbounded join would defeat it.
        httpd.block_on_close = False
        self._shutting_down = False
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0, stop_server: bool = True) -> None:
        """Shut down within ``timeout`` seconds, never hanging on in-flight work.

        Phases, all against one shared deadline: (1) flag shutdown so new
        requests answer 503 immediately; (2) stop the accept loop; (3) stop
        the inference server (when ``stop_server``) via its bounded ``stop`` —
        its ``ServerStopped`` failures release any handler blocked on a hung
        model; (4) drain remaining in-flight handlers until the deadline and
        close the listening socket.  Handlers still running at the deadline
        are daemon threads writing to closed sockets — they die quietly.
        """
        deadline = time.monotonic() + max(float(timeout), 0.0)
        self._shutting_down = True
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
        if stop_server and hasattr(self.server, "stop"):
            self.server.stop(timeout=max(deadline - time.monotonic(), 0.0))
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                self._inflight_cond.wait(timeout=remaining)
        if httpd is not None:
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=max(deadline - time.monotonic(), 0.0))

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Handler bookkeeping
    # ------------------------------------------------------------------ #
    def _enter_request(self) -> None:
        with self._inflight_cond:
            self._inflight += 1

    def _exit_request(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()

    def _resolve(self, method: str, path: str) -> Callable[..., Tuple[int, Any]]:
        handler = self._ROUTES.get((method, path))
        if handler is not None:
            return getattr(self, handler)
        if any(known_path == path for _, known_path in self._ROUTES):
            raise ApiError(405, f"{method} is not supported on {path}")
        raise ApiError(404, f"no such endpoint: {path}")

    def _guarded(self, path: str) -> bool:
        """Paths behind the optional admin bearer token."""
        return path == "/admin" or path.startswith("/admin/") or path == "/tail"

    def _authorize(self, path: str, authorization: Optional[str]) -> None:
        """401 unless the request may touch ``path`` (no-op with no token set)."""
        if self.admin_token is None or not self._guarded(path):
            return
        expected = f"Bearer {self.admin_token}".encode("utf-8")
        supplied = (authorization or "").encode("utf-8", errors="replace")
        if not hmac.compare_digest(supplied, expected):
            raise ApiError(
                401,
                "this endpoint needs an 'Authorization: Bearer <token>' header",
                headers={"WWW-Authenticate": "Bearer"},
            )

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def _require_deployment(self, name: Any) -> str:
        name = str(name)
        if name not in self.server.pool:
            raise ApiError(404, f"no deployment named {name!r}")
        return name

    def _submit(self, windows, keys, deployments) -> List[Any]:
        try:
            return self.server.submit_many(windows, keys=keys, deployments=deployments)
        except RuntimeError as error:
            # "server is not running" — stopped or not yet started.
            raise _unavailable(str(error))

    def _result_payload(self, result: Any) -> Dict[str, Any]:
        mean = result.mean[0]
        if result.lower is not None:
            lower, upper = result.lower[0], result.upper[0]
        else:
            lower, upper = result.interval(self.significance)
            lower, upper = lower[0], upper[0]
        return {
            "mean": json_ready(mean, nan_to_none=True),
            "std": json_ready(result.std[0], nan_to_none=True),
            "lower": json_ready(lower, nan_to_none=True),
            "upper": json_ready(upper, nan_to_none=True),
            "horizon": int(mean.shape[0]),
            "num_nodes": int(mean.shape[1]),
        }

    def _handle_predict(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        if not isinstance(body, dict):
            raise _bad_request("predict expects a JSON object body")
        batched = "windows" in body
        if batched:
            raw_windows = body["windows"]
            if not isinstance(raw_windows, list) or not raw_windows:
                raise _bad_request("windows must be a non-empty list of matrices")
            windows = [
                _parse_window(raw, label=f"windows[{index}]")
                for index, raw in enumerate(raw_windows)
            ]
            keys = body.get("keys")
            if keys is not None and (not isinstance(keys, list) or len(keys) != len(windows)):
                raise _bad_request("keys must align with windows")
            deployments = body.get("deployments")
            if deployments is not None:
                if not isinstance(deployments, list) or len(deployments) != len(windows):
                    raise _bad_request("deployments must align with windows")
                deployments = [
                    self._require_deployment(name) if name is not None else None
                    for name in deployments
                ]
        elif "window" in body:
            windows = [_parse_window(body["window"])]
            keys = [body.get("key")] if "key" in body else None
            deployment = body.get("deployment")
            deployments = (
                [self._require_deployment(deployment)] if deployment is not None else None
            )
        else:
            raise _bad_request("predict body needs a 'window' (or 'windows') field")
        # The submit span is active on this handler thread while the server
        # routes and enqueues, so the captured context handed to the batch
        # worker parents the batch/model spans under it.
        with start_span("router.submit", attrs={"windows": len(windows)}):
            futures = self._submit(windows, keys, deployments)
        results = []
        for future in futures:
            try:
                results.append(future.result(timeout=self.request_timeout))
            except ServerStopped as error:
                raise _unavailable(str(error))
            except FutureTimeoutError:
                raise _unavailable(
                    f"prediction did not resolve within {self.request_timeout}s"
                )
        payloads = [self._result_payload(result) for result in results]
        if batched:
            return 200, {"count": len(payloads), "results": payloads}
        return 200, payloads[0]

    def _handle_observe(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        fleet = self.fleet
        if fleet is None:
            raise ApiError(404, "no fleet is attached to this gateway")
        if not isinstance(body, dict):
            raise _bad_request("observe expects a JSON object body")
        if "observations" in body:
            raw_observations = body["observations"]
            raw_masks = body.get("masks") or {}
            if not isinstance(raw_observations, dict) or not raw_observations:
                raise _bad_request("observations must map stream names to rows")
            if not isinstance(raw_masks, dict):
                raise _bad_request("masks must map stream names to boolean rows")
        elif "stream" in body:
            if "observation" not in body:
                raise _bad_request("observe body needs an 'observation' row")
            raw_observations = {str(body["stream"]): body["observation"]}
            raw_masks = (
                {str(body["stream"]): body["mask"]} if body.get("mask") is not None else {}
            )
        else:
            raise _bad_request(
                "observe body needs 'stream' + 'observation' (or an 'observations' map)"
            )
        unknown = sorted(set(map(str, raw_observations)) - set(fleet.streams))
        if unknown:
            raise ApiError(404, f"unknown streams: {unknown}")
        observations: Dict[str, np.ndarray] = {}
        masks: Dict[str, np.ndarray] = {}
        for name, row in raw_observations.items():
            name = str(name)
            try:
                observations[name] = np.asarray(row, dtype=np.float64)
            except (TypeError, ValueError):
                raise _bad_request(f"observation for stream {name!r} is not numeric")
            if name in raw_masks and raw_masks[name] is not None:
                try:
                    masks[name] = np.asarray(raw_masks[name], dtype=bool)
                except (TypeError, ValueError):
                    raise _bad_request(f"mask for stream {name!r} is not boolean")
        return_forecasts = bool(body.get("return_forecasts", False))
        try:
            with self._fleet_lock:
                step = fleet.tick(observations, masks=masks or None)
        except (ValueError, TypeError) as error:
            raise _bad_request(str(error))
        streams: Dict[str, Any] = {}
        for name, result in step.results.items():
            entry: Dict[str, Any] = {
                "step": int(result.step),
                "coverage": json_ready(result.coverage, nan_to_none=True),
                "events": [event.to_dict() for event in result.events],
                "forecast_ready": result.prediction is not None,
            }
            if return_forecasts and result.prediction is not None:
                entry["mean"] = json_ready(result.prediction.mean[0], nan_to_none=True)
                entry["lower"] = json_ready(result.lower, nan_to_none=True)
                entry["upper"] = json_ready(result.upper, nan_to_none=True)
            streams[name] = entry
        return 200, {
            "tick": int(step.tick),
            "streams": streams,
            "events": [event.to_dict() for event in step.events],
        }

    # ------------------------------------------------------------------ #
    # Ops plane
    # ------------------------------------------------------------------ #
    def _handle_snapshot(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        if self.fleet is not None:
            snapshot = self.fleet.snapshot()
        else:
            snapshot = {"server": self.server.stats}
        snapshot["gateway"] = self.metrics.snapshot()
        return 200, json_ready(snapshot, nan_to_none=True)

    def _handle_metrics(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        return 200, render_prometheus(self)

    def _handle_healthz(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        pool = self.server.pool
        payload: Dict[str, Any] = {
            "status": "ok",
            "deployments": len(pool),
            "default_route": pool.default_name,
            "streams": len(self.fleet.streams) if self.fleet is not None else 0,
        }
        if self.slo is not None:
            firing = [alert.to_dict() for alert in self.slo.firing()]
            payload["alerts_firing"] = len(firing)
            pages = [alert for alert in firing if alert["severity"] == "page"]
            if pages:
                # A firing page means the service is violating an objective
                # an operator promised to defend: degrade health so load
                # balancers / orchestrators see it, with the detail inline.
                payload["status"] = "degraded"
                payload["firing"] = json_ready(pages, nan_to_none=True)
                return 503, payload
        return 200, payload

    def _handle_trace(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        """``GET /trace?limit=N`` — the N most recent traces as span trees."""
        limit = 20
        if query and "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError:
                raise _bad_request("limit must be an integer")
        store = trace_store()
        return 200, json_ready(
            {
                "enabled": tracing_enabled(),
                "store": store.stats,
                "traces": store.traces(limit=limit),
            },
            nan_to_none=True,
        )

    def _handle_profile(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        """``GET /profile[?window=<key>]`` — the per-phase tick cost breakdown.

        Without ``window``, lifetime totals.  With it, each distinct ``key``
        names one delta consumer: the response covers the interval since
        that key's previous scrape (``/profile?window=prom`` from a scraper
        reports per-interval cost, not ever-growing lifetime sums).
        """
        prof = profiler()
        payload: Dict[str, Any] = {"enabled": profiling_enabled()}
        window = query.get("window") if query else None
        if window is not None:
            if not window:
                raise _bad_request("window needs a non-empty consumer key")
            payload["window"] = window
            payload["phases"] = prof.delta(key=window)
        else:
            payload["phases"] = prof.snapshot()
            payload["top_phases"] = prof.top_phases()
        return 200, json_ready(payload, nan_to_none=True)

    def _handle_alerts(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        """``GET /alerts`` — SLO specs, alert states and transition history."""
        if self.slo is None:
            raise ApiError(404, "no SLO engine is attached to this gateway")
        return 200, json_ready(self.slo.snapshot(), nan_to_none=True)

    def _handle_tail(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:  # pragma: no cover - never dispatched
        # /tail is served by the handler's streaming path (_stream_tail);
        # this entry only exists so routing (404/405) treats it uniformly.
        raise ApiError(500, "tail must be served as a stream")

    def _build_tail(self, query: Dict[str, str]) -> EventTail:
        """Validate ``GET /tail`` query params into an :class:`EventTail`.

        ``kinds`` filters by event-kind prefix, ``since`` resumes from a
        sequence cursor (the SSE ``id`` field), ``max_events`` / ``timeout``
        / ``heartbeat`` bound the stream.
        """

        def _number(name: str, default: float, cast=float):
            raw = query.get(name)
            if raw is None:
                return default
            try:
                return cast(raw)
            except ValueError:
                raise _bad_request(f"{name} must be a number")

        try:
            return EventTail(
                kinds=query.get("kinds"),
                since=_number("since", None, int) if "since" in query else None,
                heartbeat_s=_number("heartbeat", 2.0),
                max_events=_number("max_events", 256, int),
                timeout_s=min(_number("timeout", 30.0), 300.0),
            )
        except ValueError as error:
            raise _bad_request(str(error))

    # ------------------------------------------------------------------ #
    # Admin plane
    # ------------------------------------------------------------------ #
    def _handle_deploy(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        if not isinstance(body, dict) or "name" not in body:
            raise _bad_request("deploy body needs a 'name' field")
        name = str(body["name"])
        version = body.get("version")
        if "checkpoint" in body:
            model: Any = str(body["checkpoint"])
        elif "model" in body:
            if self.model_resolver is None:
                raise _bad_request(
                    "this gateway has no model resolver; deploy from a 'checkpoint' path"
                )
            try:
                model = self.model_resolver(body["model"])
            except ApiError:
                raise
            except Exception as error:
                raise _bad_request(f"model spec rejected: {error}")
        else:
            raise _bad_request("deploy body needs a 'checkpoint' path or a 'model' spec")
        try:
            deployment = self.server.deploy(
                name, model, version=str(version) if version is not None else None
            )
        except (OSError, ValueError, TypeError, KeyError) as error:
            # Unreadable checkpoint, malformed spec files, ... — client errors.
            raise _bad_request(f"deploy failed: {error}")
        return 200, {
            "name": deployment.name,
            "version": deployment.version,
            "default_route": self.server.pool.default_name,
        }

    def _handle_promote(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        if not isinstance(body, dict) or "name" not in body:
            raise _bad_request("promote body needs a 'name' field")
        name = self._require_deployment(body["name"])
        previous = self.server.promote(name)
        return 200, {"default_route": name, "previous": previous}

    def _handle_rollback(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        name = body.get("name") if isinstance(body, dict) else None
        try:
            new_default = self.server.rollback(str(name) if name is not None else None)
        except KeyError as error:
            raise ApiError(404, str(error))
        except (ValueError, RuntimeError) as error:
            raise ApiError(409, str(error))
        return 200, {"default_route": new_default}

    def _router_info(self) -> Dict[str, Any]:
        router = self.server.router
        info: Dict[str, Any] = {"type": type(router).__name__}
        if isinstance(router, KeyRouter):
            info["routes"] = {str(key): name for key, name in router.routes.items()}
            info["default"] = router.default
        elif isinstance(router, TrafficSplitRouter):
            realized = router.realized_shares
            info["weights"] = [
                {
                    "deployment": name,
                    "weight": weight,
                    "realized_share": realized[name],
                }
                for name, weight in router.weights.items()
            ]
        shadows = getattr(router, "shadows", None)
        if shadows:
            info["shadows"] = list(shadows)
        return info

    def _handle_routes_get(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        pool = self.server.pool
        deployments = {
            name: pool.get(name).version
            for name in pool.names()
            if pool.get(name) is not None
        }
        return 200, {
            "default_route": pool.default_name,
            "deployments": deployments,
            "router": self._router_info(),
        }

    def _handle_routes_post(
        self, body: Optional[dict], query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Any]:
        if not isinstance(body, dict) or not ("routes" in body or "weights" in body):
            raise _bad_request("routes body needs a 'routes' map or a 'weights' map")
        if "routes" in body and "weights" in body:
            raise _bad_request("set either 'routes' or 'weights', not both")
        router = self.server.router
        if "routes" in body:
            routes = body["routes"]
            if not isinstance(routes, dict) or not routes:
                raise _bad_request("routes must map request keys to deployment names")
            resolved = {
                key: self._require_deployment(name) if name is not None else None
                for key, name in routes.items()
            }
            if isinstance(router, KeyRouter):
                router.set_routes(resolved)
            elif type(router) is Router:
                # Same upgrade the fleet performs: the inert default policy
                # becomes keyed routing; unmapped keys keep the pool default.
                self.server.router = KeyRouter(resolved)
            else:
                raise _bad_request(
                    f"router {type(router).__name__} does not support keyed routes"
                )
        else:
            weights = body["weights"]
            if not isinstance(weights, dict) or not weights:
                raise _bad_request("weights must map deployment names to weights")
            resolved_weights: Dict[Optional[str], float] = {}
            for name, weight in weights.items():
                # The empty-string key is the pool-default (uncanaried) share:
                # JSON object keys cannot be null.
                target = None if name == "" else self._require_deployment(name)
                try:
                    resolved_weights[target] = float(weight)
                except (TypeError, ValueError):
                    raise _bad_request(f"weight for {name!r} is not numeric")
            inner = router if not isinstance(router, TrafficSplitRouter) else router.inner
            try:
                if isinstance(router, TrafficSplitRouter):
                    router.set_weights(resolved_weights)
                else:
                    self.server.router = TrafficSplitRouter(resolved_weights, inner=inner)
            except ValueError as error:
                raise _bad_request(str(error))
        return 200, {"router": self._router_info()}


# --------------------------------------------------------------------------- #
# The request handler
# --------------------------------------------------------------------------- #
class _Handler(BaseHTTPRequestHandler):
    """Per-connection handler; every response is JSON (or metrics text)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-gateway"
    # Responses go out as two small writes (header flush, then body).  On a
    # long-lived keep-alive connection Nagle would hold the second write for
    # the peer's delayed ACK (~40 ms per request once quick-ACK wears off).
    disable_nagle_algorithm = True

    @property
    def gateway(self) -> Gateway:
        """The gateway :meth:`Gateway.start` bound to this handler's HTTP server."""
        return self.server.gateway

    def log_message(self, fmt: str, *args: Any) -> None:  # pragma: no cover
        pass  # metrics carry the signal; stderr noise helps nobody

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    # ------------------------------------------------------------------ #
    def _read_body(self) -> Optional[dict]:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header) if length_header is not None else 0
        except ValueError:
            raise _bad_request("malformed Content-Length header")
        if length < 0 or length > self.gateway.max_body_bytes:
            raise _bad_request(
                f"request body of {length} bytes exceeds the "
                f"{self.gateway.max_body_bytes}-byte limit"
            )
        if length == 0:
            self._body_read = True
            return None
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _bad_request("request body is not valid JSON")
        if not isinstance(body, dict):
            raise _bad_request("request body must be a JSON object")
        return body

    def _discard_body(self) -> None:
        """Drain a request body the handler never read.

        A dispatch that errors before :meth:`_read_body` (unknown route,
        shutdown 503, oversized payload) would otherwise leave the body
        bytes in the socket; on a keep-alive connection the next request
        would be parsed starting at those bytes.  Bodies we refused to read
        (oversized, or an unparsable Content-Length) close the connection
        instead of draining unbounded data.
        """
        if self._body_read:
            return
        self._body_read = True
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header) if length_header is not None else 0
        except ValueError:
            length = -1
        if length == 0:
            return
        if 0 < length <= self.gateway.max_body_bytes:
            try:
                self.rfile.read(length)
                return
            except OSError:
                pass
        self.close_connection = True

    def _send(
        self,
        status: int,
        payload: Any,
        retry_after: Optional[int] = None,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(payload, str):
            data = payload.encode("utf-8")
        else:
            data = (json.dumps(payload, allow_nan=False) + "\n").encode("utf-8")
        try:
            self.send_response(int(status))
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            trace_id = getattr(self, "_trace_id", None)
            if trace_id is not None:
                self.send_header("X-Trace-Id", trace_id)
            if retry_after is not None:
                self.send_header("Retry-After", str(int(retry_after)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError, OSError):
            # The client hung up (or stop() closed the socket); the request
            # itself was already processed — nothing to unwind.
            self.close_connection = True

    def _stream_tail(self, query: Dict[str, str]) -> None:
        """Serve ``GET /tail`` as a chunked SSE stream.

        Frames go out in HTTP/1.1 chunked encoding (one chunk per SSE
        frame) and the stream always ends with the zero-length terminator
        unless the client disconnected — so a completed tail leaves the
        keep-alive connection clean for the next request.
        """
        gateway = self.gateway
        tail = gateway._build_tail(query)  # ApiError before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            self.send_header("X-Trace-Id", trace_id)
        self.end_headers()

        def write(frame: bytes) -> None:
            self.wfile.write(b"%x\r\n%s\r\n" % (len(frame), frame))

        reason = tail.run(write, should_stop=lambda: gateway._shutting_down)
        if reason != "disconnected":
            try:
                self.wfile.write(b"0\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError, OSError):
                reason = "disconnected"
        if reason == "disconnected":
            # Mid-stream the chunked body cannot be completed; poison the
            # connection rather than let a half-written frame precede the
            # next response.
            self.close_connection = True

    def _dispatch(self, method: str) -> None:
        gateway = self.gateway
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        query = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        started = time.perf_counter()
        self._status = 500
        self._body_read = method != "POST"
        gateway._enter_request()
        # Each request is the root of its own trace; the span stays active on
        # this handler thread for the whole dispatch, so spans opened by the
        # route handlers (and contexts captured into queued requests) parent
        # under it.  Sampled requests echo the ID back as ``X-Trace-Id``.
        span = start_trace(
            "gateway." + (path.strip("/").replace("/", ".") or "root"),
            attrs={"method": method, "path": path},
        )
        self._trace_id = span.trace_id
        try:
            with span:
                self._dispatch_inner(method, path, query, span)
        finally:
            route = path if (method, path) in gateway._ROUTES else "<unmatched>"
            gateway.metrics.record(route, self._status, time.perf_counter() - started)
            gateway._exit_request()

    def _dispatch_inner(self, method: str, path: str, query: Dict[str, str], span: Any) -> None:
        gateway = self.gateway
        status = 500
        try:
            try:
                handler = gateway._resolve(method, path)
                gateway._authorize(path, self.headers.get("Authorization"))
                if gateway._shutting_down:
                    raise _unavailable("gateway is shutting down")
                body = self._read_body() if method == "POST" else None
                if path == "/tail":
                    status = 200
                    self._stream_tail(query)
                elif path == "/metrics":
                    status, payload = handler(body, query)
                    self._send(
                        status,
                        payload,
                        content_type="text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    status, payload = handler(body, query)
                    self._send(status, payload)
            except ApiError as error:
                status = error.status
                self._send(
                    status,
                    {"error": {"status": status, "message": str(error)}},
                    retry_after=error.retry_after,
                    headers=error.headers,
                )
            except Exception as error:  # pragma: no cover - defensive path
                # Never leak a traceback to the wire; the type name is enough
                # for the client and the logs carry nothing sensitive.
                status = 500
                self._send(
                    status,
                    {
                        "error": {
                            "status": 500,
                            "message": f"internal error: {type(error).__name__}",
                        }
                    },
                )
        finally:
            self._discard_body()
            self._status = status
            span.set_attr("status", status)
