"""The fleet loop: many per-corridor streams, one shared batched predict path.

:class:`StreamFleet` owns N named :class:`~repro.fleet.streams.FleetStream`
shards and drives them in lock-step ticks.  One :meth:`tick` ingests one
observation row per stream, then **batch-submits every warm stream's window
to the shared :class:`~repro.serving.InferenceServer` in a single call** —
the micro-batcher coalesces them, so the model runs ``O(ceil(N / batch))``
times instead of N, with per-corridor keys routed through the server's
:class:`~repro.serving.KeyRouter` so regions can run different deployments.

On top of the shared view the fleet layers the capabilities single streams
cannot have:

* **spatial drift aggregation** — per-stream detector firings are projected
  onto the corridor graph; a connected cluster of breached corridors
  collapses into one ``spatial_incident`` event
  (:class:`~repro.fleet.spatial.SpatialDriftAggregator`);
* **coordinated refit/promotion** — quorum-triggered, budget-capped region
  refits whose single candidate is deployed once and trialed across all of
  the region's streams before its routes are re-pointed (the
  :class:`~repro.streaming.promotion.RefitCoordinator` and
  :class:`~repro.streaming.promotion.Trial` the one-stream
  :class:`~repro.streaming.StreamingForecaster` runs on too);
* **whole-fleet checkpoints** — :meth:`save` / :meth:`load` shard every
  stream's ACI/monitor/event-log state per stream and round-trip it
  bit-identically (:mod:`repro.fleet.checkpoint`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.profiler import phase as obs_phase
from repro.obs.profiler import profiling_enabled, record_phase
from repro.obs.slo import fleet_source, server_source
from repro.obs.trace import start_trace
from repro.fleet.spatial import SpatialDriftAggregator
from repro.fleet.streams import FleetStream
from repro.serving.router import KeyRouter, Router
from repro.streaming import shard
from repro.streaming.drift import DriftEvent, EventLog
from repro.streaming.promotion import RefitCoordinator, RefitFn, RefitPolicy, Trial
from repro.streaming.runner import StepResult
from repro.utils.jsonsafe import json_ready


@dataclass
class FleetStepResult:
    """Everything one :meth:`StreamFleet.tick` produced.

    ``results`` maps stream names to their per-stream
    :class:`~repro.streaming.runner.StepResult`; ``events`` holds the
    *fleet-level* events of the tick (spatial incidents, refit coordination,
    promotions) — per-stream detector events stay on the per-stream results.
    """

    tick: int
    results: Dict[str, StepResult]
    events: List[DriftEvent] = field(default_factory=list)

    def __getitem__(self, name: str) -> StepResult:
        return self.results[name]

    def __iter__(self):
        return iter(self.results.items())

    def __len__(self) -> int:
        return len(self.results)


class StreamFleet:
    """Many named per-corridor streams over one shared inference server.

    Parameters
    ----------
    server:
        The shared (started) :class:`~repro.serving.InferenceServer` all
        per-tick predicts funnel through.  A plain default router is
        upgraded to a :class:`~repro.serving.KeyRouter` so coordinated
        promotion can re-point individual regions; an existing ``KeyRouter``
        is used as-is; any other router disables key re-pointing (region
        promotion then falls back to :meth:`InferenceServer.promote`).
    history, horizon:
        Window geometry shared by every stream.
    aci:
        Fleet-wide keyword defaults for each stream's
        :class:`~repro.streaming.aci.ACIConfig` (per-stream overrides merge
        on top).
    monitor_window:
        Rolling window of each stream's default monitor.
    detector_factory:
        Zero-argument callable building a *fresh* detector list per stream
        (detectors are stateful and must not be shared); ``None`` gives each
        stream the core's defaults.
    refit_fn:
        ``refit_fn(region, recents) -> model`` producing one region-wide
        candidate from ``{stream: (steps, nodes) recent observations}``.
        Enables the :class:`RefitCoordinator`.
    refit_policy:
        :class:`~repro.streaming.promotion.RefitPolicy` overrides
        (``mode="canary"`` also serves the candidate's calibrated forecast
        on its ``canary_fraction`` of the region's stream-steps).
    spatial:
        A :class:`~repro.fleet.spatial.SpatialDriftAggregator` over the
        corridor graph (streams opt in via their ``node``).
    version_prefix:
        Prefix of coordinated candidate deployment names/versions.
    timeout:
        Per-tick bound on waiting for the server's prediction futures: one
        deadline per tick, shared by every future (incumbent and candidate)
        the tick waits on.  A future still pending at the deadline counts
        as failed.

    Every detector event counts as drift toward its region's refit quorum,
    whatever its kind, as in the solo runner; the spatial aggregator
    filters by its own ``watch_kinds`` and sees every per-stream event.
    """

    def __init__(
        self,
        server: Any,
        history: int,
        horizon: int,
        *,
        aci: Optional[Dict[str, Any]] = None,
        monitor_window: int = 288,
        detector_factory: Optional[Any] = None,
        refit_fn: Optional[RefitFn] = None,
        refit_policy: Optional[RefitPolicy] = None,
        spatial: Optional[SpatialDriftAggregator] = None,
        version_prefix: str = "fleet",
        timeout: Optional[float] = 60.0,
    ) -> None:
        if history < 1 or horizon < 1:
            raise ValueError("history and horizon must be >= 1")
        self.server = server
        self.history = int(history)
        self.horizon = int(horizon)
        self.default_aci = dict(aci) if aci else {}
        self.monitor_window = int(monitor_window)
        self.detector_factory = detector_factory
        self.spatial = spatial
        self.version_prefix = str(version_prefix)
        self.timeout = timeout
        self.streams: Dict[str, FleetStream] = {}
        self.event_log = EventLog()
        self.coordinator = (
            RefitCoordinator(refit_fn, policy=refit_policy) if refit_fn is not None else None
        )
        router = getattr(server, "router", None)
        if isinstance(router, KeyRouter):
            self.router: Optional[KeyRouter] = router
        elif type(router) is Router:
            # Upgrade the inert default policy so regions can be re-pointed;
            # unmapped keys still fall through to the pool default.
            self.router = KeyRouter({})
            server.router = self.router
        else:
            self.router = None
        self._tick = 0
        self._region_deployment: Dict[str, Optional[str]] = {}
        self.slo: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # Stream registration
    # ------------------------------------------------------------------ #
    def add_stream(
        self,
        name: str,
        *,
        region: Optional[str] = None,
        node: Optional[int] = None,
        key: Optional[Any] = None,
        monitor: Optional[Any] = None,
        detectors: Optional[Sequence[Any]] = None,
        aci: Optional[Dict[str, Any]] = None,
        refit_window: int = 288,
    ) -> FleetStream:
        """Register one named per-corridor stream (before or between ticks)."""
        name = str(name)
        if name in self.streams:
            raise ValueError(f"a stream named {name!r} already exists")
        if not name or "/" in name or "\\" in name or name in (".", ".."):
            # Names become per-stream checkpoint directory components.
            raise ValueError(
                f"stream name {name!r} is not a valid checkpoint path component"
            )
        if (
            node is not None
            and self.spatial is not None
            and not 0 <= int(node) < self.spatial.num_nodes
        ):
            # Fail at registration: an out-of-range node would otherwise
            # raise mid-tick, after some streams already resolved their
            # pending forecasts for the step.
            raise IndexError(
                f"node {node} out of range for the spatial aggregator's "
                f"{self.spatial.num_nodes} corridors"
            )
        if node is not None and self.spatial is not None:
            taken = {
                stream.node: stream.name
                for stream in self.streams.values()
                if stream.node is not None
            }
            if int(node) in taken:
                # Two streams on one corridor node would conflate their
                # breaches and misattribute spatial incidents; without an
                # aggregator the node is inert metadata and may repeat.
                raise ValueError(
                    f"node {node} is already mapped to stream {taken[int(node)]!r}"
                )
        if detectors is None and self.detector_factory is not None:
            detectors = self.detector_factory()
        if monitor is None:
            from repro.streaming.monitor import StreamingMonitor

            significance = {**self.default_aci, **(aci or {})}.get("significance", 0.05)
            monitor = StreamingMonitor(
                window=self.monitor_window, significance=significance
            )
        core = shard.StreamCore(
            self.history,
            self.horizon,
            aci={**self.default_aci, **(aci or {})},
            monitor=monitor,
            detectors=detectors,
            refit_window=refit_window,
        )
        stream = FleetStream(name, core, region=region, node=node, key=key)
        self.streams[stream.name] = stream
        return stream

    def add_streams(
        self,
        names: Sequence[str],
        *,
        regions: Optional[Sequence[Optional[str]]] = None,
        nodes: Optional[Sequence[Optional[int]]] = None,
        **kwargs: Any,
    ) -> List[FleetStream]:
        """Register many streams at once (aligned ``regions`` / ``nodes``)."""
        if regions is not None and len(regions) != len(names):
            raise ValueError("regions must align with names")
        if nodes is not None and len(nodes) != len(names):
            raise ValueError("nodes must align with names")
        for shared in ("detectors", "monitor"):
            if shared in kwargs:
                # One stateful instance across N streams would interleave
                # their signals; per-stream construction is the only safe
                # bulk path.
                raise ValueError(
                    f"add_streams cannot share one {shared} instance across "
                    "streams; use detector_factory / per-stream add_stream"
                )
        return [
            self.add_stream(
                name,
                region=regions[index] if regions is not None else None,
                node=nodes[index] if nodes is not None else None,
                **kwargs,
            )
            for index, name in enumerate(names)
        ]

    def __len__(self) -> int:
        return len(self.streams)

    def __getitem__(self, name: str) -> FleetStream:
        return self.streams[name]

    def region_streams(self, region: Optional[str]) -> List[FleetStream]:
        return [s for s in self.streams.values() if s.region == region]

    # ------------------------------------------------------------------ #
    # The fleet tick
    # ------------------------------------------------------------------ #
    def tick(
        self,
        observations: Mapping[str, np.ndarray],
        masks: Optional[Mapping[str, np.ndarray]] = None,
    ) -> FleetStepResult:
        """Advance every observed stream by one step with batched predicts.

        ``observations`` maps stream names to their new observation rows
        (streams without a row this tick are simply skipped).  Phases:
        resolve every observed stream in one batch, then drift-detect each
        stream; aggregate spatially, settle trial verdicts, stage finished
        refits, check refit quorums, then batch-submit every warm window
        through the shared server and record the calibrated forecasts in
        one batch.

        When tracing is enabled each tick is its own trace: the root
        ``fleet.tick`` span is active on this thread for the whole tick, so
        the batched submits hand its context to the server's worker threads
        and the batch/model spans parent under it.
        """
        with start_trace(
            "fleet.tick",
            attrs={"tick": self._tick, "observed_streams": len(observations)},
        ):
            return self._tick_inner(observations, masks)

    def _tick_inner(
        self,
        observations: Mapping[str, np.ndarray],
        masks: Optional[Mapping[str, np.ndarray]] = None,
    ) -> FleetStepResult:
        """The tick body; see :meth:`tick` (which wraps it in the tick trace)."""
        unknown = set(observations) - set(self.streams)
        if unknown:
            raise KeyError(f"unknown streams in tick: {sorted(unknown)}")
        # Validate every row BEFORE Phase 1 mutates anything: a malformed
        # observation surfacing mid-tick would leave the streams processed
        # so far resolved-but-not-advanced, and a retry would double-count
        # their calibrator/monitor updates.
        normalized: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for name in observations:
            core = self.streams[name].core
            obs, valid = core.normalize(
                observations[name], masks.get(name) if masks is not None else None
            )
            expected = core._last_filled
            if expected is not None and obs.size != expected.size:
                raise ValueError(
                    f"stream {name!r} expects {expected.size} sensors per row, "
                    f"got {obs.size}"
                )
            normalized[name] = (obs, valid)
        tick_index = self._tick
        fleet_events: List[DriftEvent] = []
        ingested: Dict[str, Tuple[FleetStream, int, np.ndarray, np.ndarray]] = {}

        # Phase 1 — observe: resolve every observed stream's pending
        # forecasts in one batch (calibration and monitors), then, stream by
        # stream, feed the trial / detectors / coordinator / spatial layers.
        observed = [
            (name, stream) for name, stream in self.streams.items() if name in normalized
        ]
        batch = shard.resolve_many(
            [stream.core for _, stream in observed],
            [stream.core.step for _, stream in observed],
            [normalized[name][0] for name, _ in observed],
            [normalized[name][1] for name, _ in observed],
        )
        for (name, stream), resolved in zip(observed, batch):
            core = stream.core
            obs, valid = normalized[name]
            s = core.step
            trial = self._trial_for(stream.region)
            if trial is not None:
                trial.observe_incumbent(name, resolved)
                trial.resolve(name, s, obs, valid)
            events = core.detect(s, resolved.covered, resolved.abs_error)
            resolved.events = events
            if events:
                if self.coordinator is not None:
                    self.coordinator.note_drift(stream.region, name, tick_index)
                if self.spatial is not None:
                    # The aggregator applies its own watch_kinds filter, so a
                    # spatial-specific kind set needs no fleet-side mirror.
                    self.spatial.observe(stream.node, name, events, tick_index)
            resolved.filled = core.append(obs, valid)
            ingested[name] = (stream, s, valid, resolved)

        # Phase 2 — spatial aggregation: correlated breaches across
        # neighboring corridors collapse into one incident event.
        if self.spatial is not None:
            with obs_phase("spatial_agg"):
                incident = self.spatial.poll(tick_index)
            if incident is not None:
                fleet_events.append(self.event_log.append(incident))

        if self.coordinator is not None:
            # Phase 3 — settle any region trial that reached its verdict.
            for region, trial in list(self.coordinator.trials.items()):
                decision = trial.verdict()
                if decision is not None:
                    fleet_events.extend(self._finish_trial(trial, decision, tick_index))
            # Phase 4 — finished background refits become staged candidates.
            for region, model, error in self.coordinator.take_finished():
                if error is not None:
                    fleet_events.append(
                        self.event_log.append(
                            DriftEvent(
                                kind="region_refit_failed",
                                step=tick_index,
                                value=0.0,
                                threshold=0.0,
                                message=f"{region}: {type(error).__name__}: {error}",
                            )
                        )
                    )
                    continue
                fleet_events.extend(self._stage_candidate(region, model, tick_index))
            # Phase 5 — quorum check: launch at most budget-many new refits.
            for region in self.coordinator.maybe_trigger(tick_index, self._region_recents):
                fleet_events.append(
                    self.event_log.append(
                        DriftEvent(
                            kind="region_refit_started",
                            step=tick_index,
                            value=float(self.coordinator.policy.quorum),
                            threshold=float(self.coordinator.policy.quorum),
                            message=(
                                f"coordinated refit of region {region!r} "
                                f"(quorum {self.coordinator.policy.quorum} reached)"
                            ),
                        )
                    )
                )

        # Phase 6 — predict: one batch submit for every warm stream (plus the
        # candidate copies of trialed regions), coalesced by the micro-batcher.
        with obs_phase("window_build"):
            warm_windows: Dict[str, np.ndarray] = {}
            for name in ingested:
                window = self.streams[name].core.window()
                if window is not None:
                    warm_windows[name] = window[0]
            warm = list(warm_windows)
            windows = [warm_windows[name] for name in warm]
            keys: List[Any] = [self.streams[name].key for name in warm]
            deployments: List[Optional[str]] = [None] * len(warm)
            trial_slots: List[Tuple[Trial, str]] = []
            if self.coordinator is not None:
                for trial in self.coordinator.trials.values():
                    for name in trial.streams:
                        if name in warm_windows:  # built from ingested streams only
                            trial_slots.append((trial, name))
                            windows.append(warm_windows[name])
                            keys.append(self.streams[name].key)
                            deployments.append(trial.name)
        predictions: Dict[str, Tuple[Any, np.ndarray, np.ndarray]] = {}
        canary_served: List[str] = []
        if windows:
            profiling = profiling_enabled()
            wait_seconds, waited = 0.0, 0
            futures = self.server.submit_many(windows, keys=keys, deployments=deployments)
            deadline = (
                time.monotonic() + self.timeout if self.timeout is not None else None
            )

            def remaining() -> Optional[float]:
                return None if deadline is None else max(deadline - time.monotonic(), 0.0)

            # Every future is consumed under try/except: a deployment whose
            # predict raises (or times out) must degrade to a missing
            # forecast — not abort the tick mid-way, which would strand every
            # stream's step/pending ledger at an un-advanced state.
            arrived: List[Tuple[str, Any]] = []
            for name, future in zip(warm, futures[: len(warm)]):
                wait_start = time.perf_counter() if profiling else 0.0
                try:
                    raw = future.result(timeout=remaining())
                except Exception as error:
                    fleet_events.append(
                        self.event_log.append(
                            DriftEvent(
                                kind="stream_predict_failed",
                                step=tick_index,
                                value=0.0,
                                threshold=0.0,
                                message=f"{name}: {type(error).__name__}: {error}",
                            )
                        )
                    )
                    continue
                finally:
                    if profiling:
                        wait_seconds += time.perf_counter() - wait_start
                        waited += 1
                arrived.append((name, raw))
            recorded = shard.record_many(
                [self.streams[name].core for name, _ in arrived],
                [raw for _, raw in arrived],
            )
            predictions.update(zip([name for name, _ in arrived], recorded))
            failed_trials: Dict[str, Tuple[Trial, Exception]] = {}
            for (trial, name), future in zip(trial_slots, futures[len(warm):]):
                if trial.region in failed_trials:
                    continue
                wait_start = time.perf_counter() if profiling else 0.0
                try:
                    candidate_raw = future.result(timeout=remaining())
                except Exception as error:
                    failed_trials[trial.region] = (trial, error)
                    continue
                finally:
                    if profiling:
                        wait_seconds += time.perf_counter() - wait_start
                        waited += 1
                calibrated, cand_lower, cand_upper = self.streams[name].core.calibrate(
                    candidate_raw
                )
                trial.record(
                    name,
                    self.streams[name].core.step,
                    candidate_raw.mean[0],
                    cand_lower[0],
                    cand_upper[0],
                )
                if trial.serve_candidate_now():
                    predictions[name] = (calibrated, cand_lower[0], cand_upper[0])
                    canary_served.append(name)
            # A candidate that cannot even predict has failed its trial: the
            # broken-refit analogue of a rejection (undeploy, zero drops).
            for trial, error in failed_trials.values():
                fleet_events.extend(self._abort_trial(trial, error, tick_index))
            if profiling and waited:
                # Time this thread spent blocked on the shared server; the
                # model_forward it overlaps runs on the worker threads.
                record_phase("batch_wait", wait_seconds, count=waited)

        # Phase 7 — advance and assemble the per-stream results.
        results: Dict[str, StepResult] = {}
        for name, (stream, s, valid, resolved) in ingested.items():
            stream.core.advance()
            prediction, lower, upper = predictions.get(name, (None, None, None))
            results[name] = StepResult(
                step=s,
                observed=resolved.filled,
                mask=valid,
                prediction=prediction,
                lower=lower,
                upper=upper,
                coverage=stream.core.monitor.coverage,
                events=resolved.events,
            )
        for name in canary_served:
            results[name].served_by = "candidate"
        self._tick += 1

        # Phase 8 (optional) — sample metric sources and evaluate SLOs.  The
        # engine only *reads* monitor/stats state (never stream state or
        # RNGs), so an attached engine leaves fleet results bit-identical.
        if self.slo is not None:
            with obs_phase("slo_eval"):
                self.slo.step(tick_index)

        return FleetStepResult(tick=tick_index, results=results, events=fleet_events)

    def run(
        self,
        feeds: Mapping[str, Iterable[np.ndarray]],
        max_steps: Optional[int] = None,
    ) -> List[FleetStepResult]:
        """Drive :meth:`tick` over per-stream feeds until every feed ends.

        Feeds may have unequal lengths: a stream whose feed dries up simply
        stops being observed (its fetched rows are never discarded), while
        the remaining streams keep ticking.
        """
        iterators = {name: iter(feed) for name, feed in feeds.items()}
        results: List[FleetStepResult] = []
        while iterators and (max_steps is None or len(results) < max_steps):
            observations: Dict[str, np.ndarray] = {}
            for name, iterator in list(iterators.items()):
                try:
                    observations[name] = next(iterator)
                except StopIteration:
                    del iterators[name]
            if not observations:
                break
            results.append(self.tick(observations))
        return results

    # ------------------------------------------------------------------ #
    # SLO evaluation
    # ------------------------------------------------------------------ #
    def attach_slo(self, engine: Any) -> Any:
        """Step ``engine`` at the end of every fleet tick; returns ``engine``.

        ``engine`` is an :class:`~repro.obs.slo.SLOEngine`.  The fleet owns
        the clock, so attaching here is what makes SLO evaluation
        deterministic: samples land at tick indices, not wall times.  This
        fleet (``fleet.*`` monitor gauges + event counters) and its
        inference server (``server.*`` stats) become the engine's metric
        sources.
        """
        engine.add_source("fleet", fleet_source(self))
        engine.add_source("server", server_source(self.server))
        self.slo = engine
        return engine

    # ------------------------------------------------------------------ #
    # Coordinated refits and promotion
    # ------------------------------------------------------------------ #
    def _trial_for(self, region: Optional[str]) -> Optional[Trial]:
        if self.coordinator is None or region is None:
            return None
        return self.coordinator.trials.get(region)

    def _region_recents(self, region: str) -> Dict[str, np.ndarray]:
        recents: Dict[str, np.ndarray] = {}
        for stream in self.region_streams(region):
            recent = stream.core.recent()
            if recent is not None:
                recents[stream.name] = recent
        return recents

    def _stage_candidate(
        self, region: str, model: Any, tick_index: int
    ) -> List[DriftEvent]:
        """Deploy one finished region refit and open (or skip) its trial."""
        policy = self.coordinator.policy
        streams = self.region_streams(region)
        if not streams:
            return []
        name, version = self.coordinator.next_candidate_name(
            f"{self.version_prefix}-{region}"
        )
        self.server.deploy(name, model, version=version)
        # Calibration recovery is independent of which model ends up serving:
        # the region's nonconformity buffers refill from post-drift data.
        for stream in streams:
            stream.core.reset_scores(keep_alpha=True)
        events: List[DriftEvent] = []
        if policy.mode == "immediate":
            self._promote_region(region, name)
            events.append(
                self.event_log.append(
                    DriftEvent(
                        kind="region_candidate_promoted",
                        step=tick_index,
                        value=0.0,
                        threshold=0.0,
                        message=f"{name} ({version}) promoted immediately for {region!r}",
                    )
                )
            )
            return events
        nominal = 1.0 - streams[0].core.calibrator.config.significance
        trial = Trial(
            region,
            name,
            version,
            policy,
            nominal=nominal,
            horizon=self.horizon,
            start_steps={stream.name: stream.core.step for stream in streams},
        )
        self.coordinator.trials[region] = trial
        events.append(
            self.event_log.append(
                DriftEvent(
                    kind="region_candidate_staged",
                    step=tick_index,
                    value=float(len(streams)),
                    threshold=0.0,
                    message=(
                        f"{policy.mode} trial of {name} ({version}) across "
                        f"{len(streams)} streams of {region!r}, verdict after "
                        f"{policy.eval_steps} scored stream-steps"
                    ),
                )
            )
        )
        return events

    def _finish_trial(
        self, trial: Trial, decision: Dict[str, Any], tick_index: int
    ) -> List[DriftEvent]:
        """Promote or reject a region candidate; returns the logged events."""
        promote = bool(decision["promote"])
        self.coordinator.trials.pop(trial.region, None)
        if promote:
            self._promote_region(trial.region, trial.name)
            # The winner's residual scale differs from the incumbent's.
            for stream in self.region_streams(trial.region):
                stream.core.reset_scores(keep_alpha=True)
        elif trial.name in self.server.pool:
            # Never routed as a primary except by its own (already resolved)
            # trial submissions; in-flight stragglers fall back, zero drops.
            self.server.undeploy(trial.name)
        event = DriftEvent(
            kind="region_candidate_promoted" if promote else "region_candidate_rejected",
            step=tick_index,
            value=decision["candidate_mae"],
            threshold=decision["incumbent_mae"],
            message=f"{trial.name} for {trial.region!r}: {Trial.summary(decision)}",
        )
        return [self.event_log.append(event)]

    def _abort_trial(
        self, trial: Trial, error: Exception, tick_index: int
    ) -> List[DriftEvent]:
        """Kill a trial whose candidate cannot predict; the region keeps its
        incumbent and the fleet keeps ticking (zero dropped requests)."""
        self.coordinator.trials.pop(trial.region, None)
        if trial.name in self.server.pool:
            self.server.undeploy(trial.name)
        event = DriftEvent(
            kind="region_candidate_failed",
            step=tick_index,
            value=0.0,
            threshold=0.0,
            message=(
                f"{trial.name} for {trial.region!r} failed to predict and was "
                f"undeployed: {type(error).__name__}: {error}"
            ),
        )
        return [self.event_log.append(event)]

    def _promote_region(self, region: str, name: str) -> None:
        """Atomically re-point one region's routes at a promoted candidate."""
        displaced = self._region_deployment.get(region)
        if self.router is not None:
            self.router.set_routes(
                {stream.key: name for stream in self.region_streams(region)}
            )
        else:
            # No key routing available: the promotion moves the default route
            # (single-region fleets, or a custom router the fleet respects).
            self.server.promote(name)
        self._region_deployment[region] = name
        if (
            displaced is not None
            and displaced not in self._region_deployment.values()
            and displaced in self.server.pool
            and displaced != self.server.pool.default_name
        ):
            # The displaced generation is no longer routed by any region;
            # in-flight batches keep their snapshot, so retiring it is safe.
            self.server.undeploy(displaced)

    def join_refits(self, timeout: Optional[float] = 30.0) -> None:
        """Block until all in-flight coordinated refits have finished."""
        if self.coordinator is not None:
            self.coordinator.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """One metrics-endpoint-ready dict for the whole fleet.

        Bundles, per stream, the rolling monitor metrics
        (:meth:`StreamingMonitor.snapshot`) and the drift-event log; plus
        the fleet-level event log, refit-coordination and spatial-aggregator
        state, and the shared server's stats (serving counters, cache
        statistics and per-deployment :class:`~repro.serving.ModelPool`
        stats) — everything a ``/metrics`` endpoint needs in one call.

        The returned structure is strictly JSON-native
        (:func:`~repro.utils.jsonsafe.json_ready` runs at the end), so the
        gateway's ``/snapshot`` endpoint can ``json.dumps`` it verbatim.
        """
        streams: Dict[str, Any] = {}
        for name, stream in self.streams.items():
            streams[name] = {
                **stream.describe(),  # JSON-sanitized name/region/node/key
                "step": stream.core.step,
                "warmed_up": stream.core.warmed_up,
                "metrics": stream.core.monitor.snapshot(),
                "events": stream.core.event_log.to_records(),
            }
        snap: Dict[str, Any] = {
            "tick": self._tick,
            "num_streams": len(self.streams),
            "streams": streams,
            "events": self.event_log.to_records(),
            "region_deployments": dict(self._region_deployment),
        }
        if self.coordinator is not None:
            snap["refits"] = self.coordinator.stats()
        if self.spatial is not None:
            snap["spatial"] = self.spatial.stats()
        if hasattr(self.server, "stats"):
            snap["server"] = self.server.stats
        return json_ready(snap)

    # ------------------------------------------------------------------ #
    # Persistence (sharded per-stream checkpoints)
    # ------------------------------------------------------------------ #
    def save(self, directory: Union[str, Path]) -> Path:
        """Persist the whole fleet; see :func:`repro.fleet.checkpoint.save_fleet`."""
        from repro.fleet.checkpoint import save_fleet

        with obs_phase("checkpoint"):
            return save_fleet(self, directory)

    @classmethod
    def load(
        cls, directory: Union[str, Path], server: Any, **kwargs: Any
    ) -> "StreamFleet":
        """Rebuild a fleet from :meth:`save`; see :func:`repro.fleet.checkpoint.load_fleet`."""
        from repro.fleet.checkpoint import load_fleet

        return load_fleet(cls, directory, server, **kwargs)

    def __repr__(self) -> str:
        return (
            f"StreamFleet({len(self.streams)} streams, tick={self._tick}, "
            f"events={len(self.event_log)})"
        )
