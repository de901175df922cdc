"""Threaded inference server: micro-batching, routing, caching, worker pool.

:class:`InferenceServer` fronts a :class:`~repro.serving.pool.ModelPool` of
named, versioned deployments with a concurrent serving endpoint:

1. each window is routed by a pluggable
   :class:`~repro.serving.router.Router` (key-based, weighted canary splits,
   shadow mirroring), and the windows of one submit are queued as one
   :class:`MicroBatcher` group;
2. each micro-batch snapshots one consistent ``deployment -> (predict_fn,
   version)`` view, so :meth:`deploy` / :meth:`promote` / :meth:`rollback`
   re-point routes atomically without dropping or mixing in-flight requests;
3. windows already in the shared, deployment-namespaced cache are answered
   without touching a model; duplicates within a batch run the model once;
4. the remaining unique windows are stacked per deployment and pushed through
   the model on a thread pool of ``num_workers`` threads, so the forwards of
   that many micro-batches run at once (NumPy releases the interpreter lock
   inside array operations and GEMMs);
5. shadow deployments see mirrored copies of the same batches — their
   predictions feed rolling divergence metrics and warm their cache
   namespace, but never touch a client future.

The single-model shape ``InferenceServer(predict_fn, model_version=...)``
is a pool with exactly one deployment on the default route; re-deploying it,
``server.deploy(server.pool.default_name, model, version=...)``, hot-swaps
it in place.

Deployed predict functions must be thread-safe: the server calls one from
several workers at once, with no lock around it.  Every predict path in
:mod:`repro` is, because a forward keeps its dropout mode and mask streams
in the thread-local :func:`repro.nn.inference` context and writes nothing
to the model.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import Future, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.inference import PredictionResult
from repro.obs.events import log_event
from repro.obs.profiler import profiling_enabled, record_phase
from repro.obs.trace import current_context, record_span
from repro.serving.batching import InferenceRequest, MicroBatcher
from repro.serving.cache import SharedPredictionCache, prediction_cache_key
from repro.serving.pool import Deployment, ModelPool, PredictFn
from repro.serving.router import RouteDecision, Router
from repro.utils.jsonsafe import json_ready


class ServerStopped(RuntimeError):
    """Set on futures still unresolved when the server's shutdown deadline hits.

    Clients blocked on :meth:`Future.result` are released with this error
    instead of hanging forever behind a stuck model; the count of such
    requests is surfaced as ``stranded_requests`` in :attr:`InferenceServer.stats`.
    """


class InferenceServer:
    """Concurrent prediction service over a pool of named deployments.

    Parameters
    ----------
    predict_fn:
        Single-model shorthand: when given, it is registered as the
        ``"default"`` deployment at ``model_version`` and becomes the default
        route.  Omit it and call :meth:`deploy` for multi-model serving.
    model_version:
        Version of that deployment; namespaces its cache entries.
    router:
        Maps each request to a deployment (see :mod:`repro.serving.router`).
        The base :class:`Router` sends everything to the default route.
    max_batch_size, max_wait_ms:
        Micro-batching policy (see :class:`MicroBatcher`).
    cache_size:
        **Global** cache budget in windows, shared across all deployments
        with fair-share eviction; ``0`` disables caching.
    num_workers:
        Worker threads, each of which processes one micro-batch at a time:
        cache lookups, the model forward and future resolution.  Up to
        ``num_workers`` forwards run at once, over one deployment or
        several, so every deployed predict function must be thread-safe
        (see the module docstring).
    """

    #: Name of the deployment the single-model constructor registers.
    DEFAULT_DEPLOYMENT = "default"

    def __init__(
        self,
        predict_fn: Optional[PredictFn] = None,
        model_version: str = "v0",
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
        cache_size: int = 1024,
        num_workers: int = 2,
        router: Optional[Router] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        cache = SharedPredictionCache(capacity=cache_size) if cache_size > 0 else None
        self.pool = ModelPool(cache=cache)
        self.router = router if router is not None else Router()
        if predict_fn is not None:
            self.pool.deploy(self.DEFAULT_DEPLOYMENT, predict_fn, version=model_version)
        self.batcher = MicroBatcher(max_batch_size=max_batch_size, max_wait_ms=max_wait_ms)
        self._pool = ThreadPoolExecutor(max_workers=num_workers, thread_name_prefix="repro-infer")
        self._dispatcher: Optional[threading.Thread] = None
        self._running = False
        self._lock = threading.Lock()
        # Every minted future until it resolves: the shutdown path fails
        # whatever is left here so no client blocks forever on a stuck model.
        self._futures_lock = threading.Lock()
        self._outstanding: set = set()
        self._stranded_requests = 0
        #: Chaos hook: called as ``fault_injector(deployment_name, stacked)``
        #: right before each primary/shadow model pass, on the worker thread
        #: that runs it.  Raising fails that group's requests through the
        #: normal error path; blocking simulates a hung model and stalls that
        #: worker only.  ``None`` (the default) is a no-op.
        self.fault_injector: Optional[Callable[[str, np.ndarray], None]] = None
        self._requests_served = 0
        self._batches_dispatched = 0
        self._model_windows = 0
        self._shadow_windows = 0
        self._promotions = 0
        self._rollbacks = 0
        self._route_fallbacks = 0
        self._shadow_errors = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "InferenceServer":
        """Start the dispatcher; a no-op on a running server.

        A stopped server cannot start again, since its batcher is closed and
        its worker pool shut down: build a new server instead.
        """
        if self._running:
            return self
        if self.batcher.closed:
            raise RuntimeError(
                "a stopped InferenceServer cannot be restarted; build a new server"
            )
        self._running = True
        self._dispatcher = threading.Thread(target=self._dispatch_loop, daemon=True)
        self._dispatcher.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Shut down within ``timeout`` seconds, never stranding a client.

        On the happy path the dispatcher drains the queue, every in-flight
        future resolves, and the worker pool joins cleanly.  When a model
        hangs (or the dispatcher wedges), the deadline expires instead: every
        future still outstanding is failed with :class:`ServerStopped` so
        blocked ``result()`` callers wake up, the count lands in
        ``stats["stranded_requests"]``, and the worker pool is abandoned
        without waiting (its queued batches are cancelled; the stuck thread
        keeps the hung model call, nothing else).
        """
        # The lock orders stop() against submit(): any submit that saw
        # _running=True has already enqueued its request, and the queue is
        # FIFO, so that request precedes the shutdown sentinel and is drained.
        with self._lock:
            if not self._running:
                return
            self._running = False
            self.batcher.close()
        deadline = time.monotonic() + max(float(timeout), 0.0)
        dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.join(timeout=max(deadline - time.monotonic(), 0.0))
        with self._futures_lock:
            outstanding = list(self._outstanding)
        if outstanding:
            wait(outstanding, timeout=max(deadline - time.monotonic(), 0.0))
        stranded = [future for future in outstanding if not future.done()]
        for future in stranded:
            # _run_primary guards set_result with done(), so a worker that
            # eventually finishes the hung call cannot collide with this.
            future.set_exception(
                ServerStopped("server stopped before the request resolved")
            )
        clean = not stranded and (dispatcher is None or not dispatcher.is_alive())
        if stranded:
            with self._lock:
                self._stranded_requests += len(stranded)
        self._pool.shutdown(wait=clean, cancel_futures=not clean)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Deployment management
    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> Optional[SharedPredictionCache]:
        """The shared (deployment-namespaced) prediction cache."""
        return self.pool.cache

    @property
    def model_version(self) -> Optional[str]:
        """Version of the deployment on the default route."""
        name = self.pool.default_name
        if name is None:
            return None
        deployment = self.pool.get(name)
        return deployment.version if deployment is not None else None

    def deploy(self, name: str, model: Any, version: Optional[str] = None) -> Deployment:
        """Register (or hot-replace) a named deployment.

        ``model`` is a :class:`~repro.api.Forecaster`, a fitted UQ method, a
        bare predict function, or a checkpoint directory path.  The first
        deployment becomes the default route.  Re-deploying a name swaps its
        model with zero dropped requests: batches already queued finish on
        the version they snapshotted, and the old version's cache entries
        are dropped.
        """
        deployment = self.pool.deploy(name, model, version=version)
        log_event("serving.deploy", deployment=name, version=deployment.version)
        return deployment

    def undeploy(self, name: str) -> Deployment:
        """Retire a non-default deployment and free its cache namespace."""
        deployment = self.pool.undeploy(name)
        log_event("serving.undeploy", deployment=name, version=deployment.version)
        return deployment

    def promote(self, name: str) -> Optional[str]:
        """Atomically make ``name`` the default route; returns the previous name.

        Same zero-drop semantics as re-deploying: batches in flight finish
        on the deployment they snapshotted.
        """
        previous = self.pool.promote(name)
        with self._lock:
            self._promotions += 1
        log_event("serving.promote", deployment=name, previous=previous)
        return previous

    def rollback(self, name: Optional[str] = None) -> str:
        """Revert the default route to the previous promotion; see
        :meth:`~repro.serving.pool.ModelPool.rollback`."""
        new_default = self.pool.rollback(name)
        with self._lock:
            self._rollbacks += 1
        log_event("serving.rollback", deployment=new_default, requested=name)
        return new_default

    @classmethod
    def from_checkpoint(  # repro: noqa[unused/symbol] documented checkpoint boot path
        cls,
        directory: Union[str, Path],
        model_version: Optional[str] = None,
        **kwargs,
    ) -> "InferenceServer":
        """Build an (unstarted) server over a :class:`~repro.api.Forecaster` checkpoint.

        The checkpoint directory (written by ``Forecaster.save``) fully
        describes the model, so serving needs no dataset or training code.
        ``model_version`` defaults to ``<method>-<backbone>@<dirname>``.
        """
        from repro.api import Forecaster

        directory = Path(directory)
        forecaster = Forecaster.load(directory)
        version = (
            model_version
            if model_version is not None
            else f"{forecaster.default_version()}@{directory.name}"
        )
        return cls(forecaster.predict, model_version=version, **kwargs)

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        window: np.ndarray,
        key: Optional[Any] = None,
        deployment: Optional[str] = None,
    ) -> Future:
        """Queue one ``(history, num_nodes)`` window; returns a future.

        ``key`` is the routing key (region, corridor, ...) handed to the
        router; servers without a key-aware router can ignore it.
        ``deployment`` pins the request at a named deployment, bypassing the
        router entirely — the escape hatch trial machinery uses to score a
        staged candidate on exactly the traffic it chooses.  A one-window
        :meth:`submit_many`.
        """
        return self.submit_many([window], keys=[key], deployments=[deployment])[0]

    def _route(
        self, window: np.ndarray, key: Optional[Any], deployment: Optional[str]
    ) -> InferenceRequest:
        """Route one validated window into a tracked request (caller holds the lock)."""
        if deployment is not None:
            decision = RouteDecision(primary=deployment)
        else:
            decision = self.router.route(window, key=key)
        # Cross-thread trace handoff: capture this thread's active span so
        # the batch worker can parent its batch/model spans under it.
        request = InferenceRequest(
            window=window,
            key=key,
            primary=decision.primary,
            shadows=tuple(decision.shadows),
            trace=current_context(),
        )
        with self._futures_lock:
            self._outstanding.add(request.future)
        request.future.add_done_callback(self._discard_outstanding)
        return request

    def _discard_outstanding(self, future: Future) -> None:
        with self._futures_lock:
            self._outstanding.discard(future)

    def submit_many(
        self,
        windows: Union[np.ndarray, Sequence[np.ndarray]],
        keys: Optional[Sequence[Any]] = None,
        deployments: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Future]:
        """Queue a same-tick batch of windows in one shot; returns the futures.

        The batch-submit path the fleet tick uses: all windows are routed
        under a single lock acquisition and enqueued as one micro-batcher
        group, which is cut into full batches however the dispatcher's wait
        window falls.  N windows behind an empty queue make exactly
        ``ceil(N / max_batch_size)`` batches instead of N.  ``keys``
        (per-window routing keys) and ``deployments`` (per-window pinned
        deployments, ``None`` entries fall through to the router) align with
        ``windows`` when given.
        """
        windows = [np.asarray(window, dtype=np.float64) for window in windows]
        for window in windows:
            if window.ndim != 2:
                raise ValueError(
                    f"submit_many expects (history, num_nodes) windows, got {window.shape}"
                )
        if keys is not None and len(keys) != len(windows):
            raise ValueError("keys must align with windows")
        if deployments is not None and len(deployments) != len(windows):
            raise ValueError("deployments must align with windows")
        with self._lock:
            if not self._running:
                raise RuntimeError(
                    "server is not running; call start() or use it as a context manager"
                )
            # Routed inside the running check: a rejected submit must not
            # charge stateful routers (deficit counters track *served*
            # traffic, or a TrafficSplitRouter's realized shares drift).
            requests = [
                self._route(
                    window,
                    keys[index] if keys is not None else None,
                    deployments[index] if deployments is not None else None,
                )
                for index, window in enumerate(windows)
            ]
            futures = [request.future for request in requests]
            self.batcher.put_group(requests)  # hands the list over
        return futures

    def predict_many(
        self,
        windows: Union[np.ndarray, Sequence[np.ndarray]],
        timeout: Optional[float] = 60.0,
        keys: Optional[Sequence[Any]] = None,
    ) -> List[PredictionResult]:
        """Submit many windows at once and block for their results (in order)."""
        futures = self.submit_many(windows, keys=keys)
        return [future.result(timeout=timeout) for future in futures]

    @property
    def stats(self) -> Dict[str, Any]:
        """Serving counters, cache statistics, and per-deployment stats.

        Strictly JSON-native (the gateway's ops endpoints serialize it
        verbatim): every value is a builtin scalar, list or dict —
        :func:`~repro.utils.jsonsafe.json_ready` coerces at the source.
        """
        with self._futures_lock:
            outstanding = len(self._outstanding)
        with self._lock:
            stats: Dict[str, Any] = {
                "running": self._running,
                "outstanding_requests": outstanding,
                "requests_served": self._requests_served,
                "batches_dispatched": self._batches_dispatched,
                "model_windows": self._model_windows,
                "shadow_windows": self._shadow_windows,
                "promotions": self._promotions,
                "rollbacks": self._rollbacks,
                "route_fallbacks": self._route_fallbacks,
                "shadow_errors": self._shadow_errors,
                "stranded_requests": self._stranded_requests,
                "mean_batch_size": (
                    self._requests_served / self._batches_dispatched
                    if self._batches_dispatched
                    else 0.0
                ),
            }
            stats["queue_depth"] = self.batcher.depth
            stats["batch_fill_ratio"] = (
                stats["mean_batch_size"] / self.batcher.max_batch_size
            )
        if self.cache is not None:
            for name, value in self.cache.stats.items():
                stats[f"cache_{name}"] = value
        stats["default_route"] = self.pool.default_name
        stats["deployments"] = self.pool.stats
        return json_ready(stats)

    # ------------------------------------------------------------------ #
    # Dispatcher
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                break
            if not batch:
                continue
            self._pool.submit(self._process_batch, batch)
        # Drain whatever arrived between close() and the sentinel.
        leftover = self.batcher.next_batch(poll_timeout=0.0)
        while leftover:
            self._pool.submit(self._process_batch, leftover)
            leftover = self.batcher.next_batch(poll_timeout=0.0)

    def _snapshot_routes(
        self, batch: List[InferenceRequest]
    ) -> Dict[Optional[str], Deployment]:
        """One consistent route -> deployment view for the whole batch.

        A route naming a deployment that vanished between submit and dispatch
        falls back to the default route (counted, never dropped) — promotion
        and rollback must not strand queued requests.
        """
        snapshot: Dict[Optional[str], Deployment] = {}
        fallbacks = 0
        for route in {request.primary for request in batch}:
            try:
                snapshot[route] = self.pool.resolve(route)
            except KeyError:
                snapshot[route] = self.pool.resolve(None)
                fallbacks += 1
        if fallbacks:
            with self._lock:
                self._route_fallbacks += fallbacks
        return snapshot

    def _process_batch(self, batch: List[InferenceRequest]) -> None:
        try:
            if profiling_enabled():
                # Queue wait inside the micro-batcher (submit -> dispatch);
                # "batch_wait" proper — the tick thread's blocked time — is
                # recorded by the fleet, which observes the whole round trip.
                now = time.perf_counter()
                record_phase(
                    "queue_wait",
                    sum(now - request.enqueued_at for request in batch),
                    count=len(batch),
                )
            snapshot = self._snapshot_routes(batch)
            # Group requests by the deployment object they resolved to: two
            # routes (e.g. None and an explicit name) may share a deployment.
            groups: Dict[int, Tuple[Deployment, List[InferenceRequest]]] = {}
            for request in batch:
                deployment = snapshot[request.primary]
                groups.setdefault(id(deployment), (deployment, []))[1].append(request)
            primary_results: Dict[int, PredictionResult] = {}
            for deployment, requests in groups.values():
                # Per-deployment failure domain: one model's bad checkpoint
                # must not poison requests routed at the healthy ones.
                try:
                    self._run_primary(deployment, requests, primary_results)
                except Exception as error:
                    for request in requests:
                        if not request.future.done():
                            request.future.set_exception(error)
            self._run_shadows(batch, snapshot, primary_results)
            with self._lock:
                self._requests_served += len(batch)
                self._batches_dispatched += 1
        except Exception as error:  # pragma: no cover - defensive path
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)

    def _predict_group(
        self,
        deployment: Deployment,
        requests: List[InferenceRequest],
        shadow: bool = False,
    ) -> Tuple[Dict[str, PredictionResult], int]:
        """Resolve each request's window through cache + one stacked model pass.

        Returns ``(key -> result, model_windows)`` covering every request;
        duplicates within the group share one key and one forward slot.
        Primary groups record ``batch.execute`` / ``model.forward`` spans
        under each traced request's captured context (shadow mirrors stay
        invisible to traces, as they are to clients).
        """
        group_start = time.perf_counter()
        model_interval: Optional[Tuple[float, float]] = None
        keys = [
            prediction_cache_key(request.window, deployment.namespace)
            for request in requests
        ]
        resolved: Dict[str, PredictionResult] = {}
        if self.cache is not None:
            for key in set(keys):
                hit = self.cache.get(deployment.namespace, key)
                if hit is not None:
                    resolved[key] = hit
        pending_keys: List[str] = []
        pending_windows: List[np.ndarray] = []
        for request, key in zip(requests, keys):
            if key not in resolved and key not in pending_keys:
                pending_keys.append(key)
                pending_windows.append(request.window)
        if pending_windows:
            stacked = np.stack(pending_windows, axis=0)
            injector = self.fault_injector
            if injector is not None:
                injector(deployment.name, stacked)
            forward_start = time.perf_counter()
            result = deployment.predict_fn(stacked)
            forward_end = time.perf_counter()
            model_interval = (forward_start, forward_end)
            if not shadow:
                record_phase(
                    "model_forward",
                    forward_end - forward_start,
                    count=len(pending_windows),
                )
            for offset, key in enumerate(pending_keys):
                # copy(): a plain slice would be a view pinning the whole
                # batch result in memory for the lifetime of the entry.
                sliced = result[offset].copy()
                resolved[key] = sliced
                if self.cache is not None:
                    self.cache.put(deployment.namespace, key, sliced)
        per_request = {
            id(request): resolved[key] for request, key in zip(requests, keys)
        }
        if not shadow:
            self._record_batch_spans(
                deployment, requests, group_start, len(pending_windows), model_interval
            )
        return per_request, len(pending_windows)

    def _record_batch_spans(
        self,
        deployment: Deployment,
        requests: List[InferenceRequest],
        group_start: float,
        model_windows: int,
        model_interval: Optional[Tuple[float, float]],
    ) -> None:
        """Attribute this group's batch/model intervals to the traced requests.

        Each traced request gets its own ``batch.execute`` span (parented
        under the span that submitted it, via the captured context) so every
        trace tree is complete on its own; the shared ``model.forward``
        interval nests under each.  Recorded retroactively from the worker
        thread — the explicit half of the cross-thread handoff.
        """
        end = time.perf_counter()
        for request in requests:
            if request.trace is None:
                continue
            batch_ctx = record_span(
                "batch.execute",
                request.trace,
                group_start,
                end,
                attrs={
                    "deployment": deployment.name,
                    "batch_size": len(requests),
                    "model_windows": model_windows,
                },
            )
            if batch_ctx is not None and model_interval is not None:
                record_span(
                    "model.forward",
                    batch_ctx,
                    model_interval[0],
                    model_interval[1],
                    attrs={"version": deployment.version},
                )

    def _run_primary(
        self,
        deployment: Deployment,
        requests: List[InferenceRequest],
        primary_results: Dict[int, PredictionResult],
    ) -> None:
        per_request, model_windows = self._predict_group(deployment, requests)
        for request in requests:
            result = per_request[id(request)]
            primary_results[id(request)] = result
            # A future may already hold ServerStopped if stop()'s deadline
            # fired while this batch was stuck in a hung model call.
            if not request.future.done():
                request.future.set_result(result)
        deployment.record_served(len(requests), model_windows)
        if model_windows:
            with self._lock:
                self._model_windows += model_windows

    def _run_shadows(
        self,
        batch: List[InferenceRequest],
        snapshot: Dict[Optional[str], Deployment],
        primary_results: Dict[int, PredictionResult],
    ) -> None:
        """Mirror tagged requests to shadow deployments; never touches futures.

        Shadow passes run after every client future has resolved, record
        rolling |shadow - primary| divergence on the shadow deployment, and
        warm its cache namespace; a failing shadow model is counted and
        otherwise invisible to clients.
        """
        mirrored: Dict[str, List[InferenceRequest]] = defaultdict(list)
        for request in batch:
            for shadow in request.shadows:
                mirrored[shadow].append(request)
        for shadow, requests in mirrored.items():
            deployment = self.pool.get(shadow)
            if deployment is None:
                continue
            requests = [r for r in requests if snapshot[r.primary] is not deployment]
            if not requests:
                continue
            try:
                per_request, model_windows = self._predict_group(
                    deployment, requests, shadow=True
                )
                divergences = [
                    float(np.mean(np.abs(
                        per_request[id(r)].mean - primary_results[id(r)].mean
                    )))
                    for r in requests
                    if id(r) in primary_results
                ]
                divergence = float(np.mean(divergences)) if divergences else None
                deployment.record_shadow(model_windows, divergence=divergence)
                if model_windows:
                    with self._lock:
                        self._shadow_windows += model_windows
            except Exception:
                with self._lock:
                    self._shadow_errors += 1


#: Per-method-name counters backing ``serve_method``'s default versions.
_SERVE_COUNTERS: Dict[str, "itertools.count"] = defaultdict(itertools.count)
_SERVE_COUNTERS_LOCK = threading.Lock()


def serve_method(method, model_version: Optional[str] = None, **kwargs) -> InferenceServer:
    """Build (but do not start) an :class:`InferenceServer` over a fitted UQ method.

    The default ``model_version`` is ``<method.name>-<counter>`` with a
    per-name process-wide counter — stable across runs (unlike an ``id()``
    scheme), so cache keys and version strings are reproducible, while
    distinct servings of the same method still get distinct versions.
    """
    if model_version is None:
        with _SERVE_COUNTERS_LOCK:
            model_version = f"{method.name}-{next(_SERVE_COUNTERS[method.name])}"
    return InferenceServer(
        lambda windows: method.predict(windows), model_version=model_version, **kwargs
    )
