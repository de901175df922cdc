"""The benchmark's three workloads over the DeepSTUQ serving stack.

Each workload builds its system from a seed, sets it up several times
(``setup_s`` is the median), then drives closed-loop load for the measuring
time.  An untraced run measures in one segment.  A traced run alternates
untraced and traced quarters, so the tracing overhead comes from the same
process and the same warm state.

Every workload reports the same five end-to-end metrics for its *primary
operation*: a fleet tick on ``fleet_256``, a single-window ``/predict`` on
the two HTTP workloads.  See ``README.md`` for the per-workload meaning.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.inference import BatchedPredictor, PredictionResult
from repro.data import StreamingTrafficFeed
from repro.data.scalers import StandardScaler
from repro.fleet import StreamFleet
from repro.gateway import Gateway, LoadGenerator, parse_prometheus_text
from repro.graph import grid_network
from repro.models.agcrn import AGCRN
from repro.obs.slo import SLOEngine, default_slos
from repro.serving import InferenceServer

import tracing
from harness import Client, Digest, histogram, mean, percentile, timing_summary

# ---------------------------------------------------------------------- #
# Configurations
# ---------------------------------------------------------------------- #
_AGCRN = {
    "grid": [2, 2],
    "hidden_dim": 8,
    "embed_dim": 3,
    "history": 12,
    "horizon": 4,
    "n_mc": 16,
    "max_batch": 64,
    "max_wait_ms": 2.0,
    "cache_size": 0,
}

CONFIGS: Dict[str, Dict[str, Any]] = {
    "fleet_256": {
        **_AGCRN,
        "streams": 256,
        "setup_reps": 9,
    },
    "http_predict": {
        "history": 12,
        "nodes": 4,
        "horizon": 4,
        "max_batch": 32,
        "max_wait_ms": 0.5,
        "cache_size": 0,
        "server_workers": 2,
        "clients": 2,
        # A set-up takes about 5 ms here, and single ones spread by ±20%.
        "setup_reps": 21,
        # The whole process on one CPU.  This path is thread hand-offs under
        # one interpreter lock; across two vCPUs of a busy host each hand-off
        # waits on a cross-CPU wake-up, which cut req/s by up to 30% between
        # identical runs.  On one CPU the same runs agreed within a few %.
        "cpus": 1,
    },
    "gateway_mixed": {
        **_AGCRN,
        "streams": 64,
        "scrape_every": 10,
        "setup_reps": 9,
    },
}

#: The tail percentile of every timing.  A p99 of ``http_predict`` measured
#: how often the host stalled its one CPU: two sets of ten runs of the same
#: code had p99 medians 45% apart.
TAIL_Q = 90.0

#: Fleet save/restore rounds per run (``fleet.save_ms`` and
#: ``fleet.restore_ms`` are medians).  ``setup_s`` is the median of the
#: workload's ``setup_reps`` set-ups.
CHECKPOINT_REPS = 3

#: Tiny sizes for the benchmark's own tests.
SMOKE: Dict[str, Dict[str, Any]] = {
    "fleet_256": {"streams": 8, "n_mc": 2, "hidden_dim": 4},
    "http_predict": {},
    "gateway_mixed": {"streams": 4, "n_mc": 2, "hidden_dim": 4},
}


def config_for(name: str, smoke: bool) -> Dict[str, Any]:
    config = dict(CONFIGS[name])
    if smoke:
        config.update(SMOKE[name])
    return config


# ---------------------------------------------------------------------- #
# Shared building blocks
# ---------------------------------------------------------------------- #
class Forwards:
    """Every model call as ``(start, end, windows)``; cheap enough to keep always."""

    def __init__(self) -> None:
        self.calls: List[Tuple[float, float, int]] = []

    def wrap(self, predict: Callable[[np.ndarray], Any]) -> Callable[[np.ndarray], Any]:
        calls = self.calls

        def timed_predict(windows: np.ndarray) -> Any:
            start = time.perf_counter()
            result = predict(windows)
            calls.append((start, time.perf_counter(), len(windows)))
            return result

        return timed_predict


def agcrn_predict(config: Dict[str, Any], seed: int) -> Callable[[np.ndarray], Any]:
    """The MC-dropout AGCRN forecaster the AGCRN workloads deploy."""
    rows, cols = config["grid"]
    model = AGCRN(
        num_nodes=rows * cols,
        history=config["history"],
        horizon=config["horizon"],
        hidden_dim=config["hidden_dim"],
        embed_dim=config["embed_dim"],
        encoder_dropout=0.1,
        decoder_dropout=0.2,
        heads=("mean", "log_var"),
        rng=np.random.default_rng(seed),
    )
    scaler = StandardScaler().fit(np.array([0.0, 400.0]))
    predictor = BatchedPredictor(model, scaler)
    num_samples = config["n_mc"]

    def predict(windows: np.ndarray) -> Any:
        return predictor.monte_carlo(
            scaler.transform(windows), num_samples=num_samples, rng=np.random.default_rng(seed)
        )

    return predict


def cheap_predict(horizon: int) -> Callable[[np.ndarray], Any]:
    """A deterministic model whose cost is negligible: the window mean, repeated."""
    def predict(windows: np.ndarray) -> Any:
        mean_ = np.repeat(windows.mean(axis=1, keepdims=True), horizon, axis=1)
        return PredictionResult(
            mean=mean_, aleatoric_var=np.ones_like(mean_), epistemic_var=np.zeros_like(mean_)
        )

    return predict


def agcrn_server(config: Dict[str, Any], predict: Callable) -> Any:
    return InferenceServer(
        predict,
        model_version="bench",
        max_batch_size=config["max_batch"],
        max_wait_ms=config["max_wait_ms"],
        cache_size=config["cache_size"],
    )


def feed_rows(config: Dict[str, Any], seed: int, steps: int) -> np.ndarray:
    """``(streams, steps, nodes)`` traffic rows, one seeded feed per stream."""
    network = grid_network(*config["grid"])
    return np.stack(
        [
            np.asarray(list(StreamingTrafficFeed(network, num_steps=steps, seed=seed * 100_003 + i)))
            for i in range(config["streams"])
        ]
    )


def build_fleet(config: Dict[str, Any], server: Any) -> Tuple[Any, Any]:
    """A started-server fleet with default detectors and a default SLO engine."""
    fleet = StreamFleet(server, config["history"], config["horizon"])
    for index in range(config["streams"]):
        fleet.add_stream(f"c{index}")
    engine = fleet.attach_slo(SLOEngine(default_slos()))
    return fleet, engine


def check_forecasts(step: Any, names: List[str]) -> Tuple[bool, Tuple[np.ndarray, ...]]:
    """Every stream has a finite forecast with lower <= mean <= upper."""
    results = step.results
    if any(results[name].prediction is None for name in names):
        return False, ()
    mean_ = np.stack([results[name].prediction.mean[0] for name in names])
    lower = np.stack([results[name].lower for name in names])
    upper = np.stack([results[name].upper for name in names])
    finite = bool(np.isfinite(mean_).all() and np.isfinite(lower).all() and np.isfinite(upper).all())
    ordered = bool((lower <= mean_).all() and (mean_ <= upper).all())
    failed_events = any(event.kind == "stream_predict_failed" for event in step.events)
    return finite and ordered and not failed_events, (mean_, lower, upper)


def states_equal(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    """Bit-for-bit equality of two ``get_state`` snapshots."""
    if json.dumps(left["meta"], sort_keys=True) != json.dumps(right["meta"], sort_keys=True):
        return False
    if set(left["arrays"]) != set(right["arrays"]):
        return False
    for key, value in left["arrays"].items():
        a, b = np.asarray(value), np.asarray(right["arrays"][key])
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True


def in_intervals(time_: float, intervals: List[Tuple[float, float]]) -> bool:
    return any(start <= time_ <= end for start, end in intervals)


class Workload:
    """Common bookkeeping: samples per segment kind, counts and checks."""

    name = ""

    def __init__(self, config: Dict[str, Any], seed: int, root: str) -> None:
        self.config = config
        self.seed = seed
        self.root = root
        self.forwards = Forwards()
        self.setup_times: List[float] = []
        # Keyed by traced (True/False): latencies of the primary operation.
        self.primary: Dict[bool, List[float]] = {False: [], True: []}
        self.primary_work: Dict[bool, float] = {False: 0.0, True: 0.0}
        self.primary_time: Dict[bool, float] = {False: 0.0, True: 0.0}
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.detail: Dict[str, Any] = {}
        self.layers: Dict[str, float] = {}
        self._lock = threading.Lock()

    @property
    def server(self) -> Any:
        """The inference server behind the workload (for its stats)."""
        raise NotImplementedError

    def check(self, name: str, ok: bool) -> None:
        with self._lock:
            self.checks[name] = self.checks.get(name, True) and bool(ok)

    def count(self, ok: bool) -> None:
        """One operation attempted; ``ok`` False counts it as failed."""
        with self._lock:
            self.attempted += 1
            self.failed += 0 if ok else 1

    # Hooks ------------------------------------------------------------ #
    def setup(self) -> None:
        raise NotImplementedError

    def segment(self, traced: bool, seconds: float) -> None:
        raise NotImplementedError

    def warm_up(self, seconds: float) -> None:
        """Load before the measuring segments: checked and counted, not timed.

        The first seconds after set-up ran up to 30% slower than the rest
        (the allocator and collector still settling), and that bias moved
        run medians.
        """
        self.segment(False, seconds)
        self.primary[False].clear()
        self.primary_work[False] = self.primary_time[False] = 0.0

    def epilogue(self, tracer: Optional[tracing.Tracer]) -> None:
        """Work after the measuring segments (checkpoints, final scrape)."""

    def close(self) -> None:
        raise NotImplementedError

    def layer_metrics(self, spans: List[tracing.Span]) -> None:
        """Workload-specific per-layer numbers, added to ``self.layers``."""


# ---------------------------------------------------------------------- #
# fleet_256
# ---------------------------------------------------------------------- #
class FleetWorkload(Workload):
    """One caller ticks a 256-stream fleet in a closed loop, then checkpoints it."""

    name = "fleet_256"

    def __init__(self, config: Dict[str, Any], seed: int, root: str, seconds: float) -> None:
        super().__init__(config, seed, root)
        self.seconds = seconds
        # The last warm-up tick is the first to forecast.
        self.warm_ticks = config["history"]
        # Enough rows for the fastest plausible tick; the loop wraps around.
        self.steps = self.warm_ticks + int(seconds / 0.05) + 8
        self.rows = feed_rows(config, seed, self.steps)
        self.names = [f"c{index}" for index in range(config["streams"])]
        self.t = 0
        self.digest = Digest()
        self.tick_forwards: List[int] = []
        self._server = self.fleet = None
        self.save_times: List[float] = []
        self.restore_times: List[float] = []
        self.checkpoint_intervals: Dict[str, List[Tuple[float, float]]] = {"save": [], "load": []}

    def _observations(self, t: int) -> Dict[str, np.ndarray]:
        if t >= self.steps:
            t = self.warm_ticks + (t - self.warm_ticks) % (self.steps - self.warm_ticks)
        return {name: self.rows[index, t] for index, name in enumerate(self.names)}

    def setup(self) -> None:
        digests, batches = [], []
        for rep in range(self.config["setup_reps"]):
            if self._server is not None:
                self._server.stop()
            mark = len(self.forwards.calls)
            start = time.perf_counter()
            server = agcrn_server(self.config, self.forwards.wrap(agcrn_predict(self.config, self.seed)))
            server.start()
            fleet, _ = build_fleet(self.config, server)
            steps = [fleet.tick(self._observations(t)) for t in range(self.warm_ticks)]
            self.setup_times.append(time.perf_counter() - start)
            self._server, self.fleet = server, fleet
            digest = Digest()
            for step in steps[self.config["history"] - 1:]:
                ok, arrays = check_forecasts(step, self.names)
                self.check("forecasts", ok)
                if ok:
                    digest.update(*arrays)
            digests.append(digest.hexdigest())
            batches.append([call[2] for call in self.forwards.calls[mark:]])
        self.t = self.warm_ticks
        # Same seed, same inputs: the digests differ only when the
        # micro-batcher split a tick's windows differently (reported, not gated).
        self.detail["setup_digests"] = digests
        self.detail["setup_digests_match"] = len(set(digests)) == 1
        self.detail["setup_batch_sizes"] = batches

    def segment(self, traced: bool, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        streams = len(self.names)
        while time.perf_counter() < deadline:
            observations = self._observations(self.t)
            mark = len(self.forwards.calls)
            start = time.perf_counter()
            step = self.fleet.tick(observations)
            elapsed = time.perf_counter() - start
            self.t += 1
            self.tick_forwards.append(len(self.forwards.calls) - mark)
            ok, arrays = check_forecasts(step, self.names)
            if ok:
                self.digest.update(*arrays)
            self.count(ok)
            self.check("forecasts", ok)
            self.primary[traced].append(elapsed)
            self.primary_work[traced] += streams
            self.primary_time[traced] += elapsed

    def epilogue(self, tracer: Optional[tracing.Tracer]) -> None:
        scratch = os.path.join(self.root, ".perfbench_tmp", f"{os.getpid()}")
        os.makedirs(scratch, exist_ok=True)
        if tracer is not None:
            tracer.install()
        try:
            restored = []
            for rep in range(CHECKPOINT_REPS):
                directory = os.path.join(scratch, f"fleet{rep}")
                start = time.perf_counter()
                self.fleet.save(directory)
                middle = time.perf_counter()
                restored.append(StreamFleet.load(directory, self._server))
                end = time.perf_counter()
                self.save_times.append(middle - start)
                self.restore_times.append(end - middle)
                self.checkpoint_intervals["save"].append((start, middle))
                self.checkpoint_intervals["load"].append((middle, end))
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(scratch, ignore_errors=True)
        saved = {name: stream.core.get_state() for name, stream in self.fleet.streams.items()}
        for fleet in restored:
            identical = set(fleet.streams) == set(saved) and all(
                states_equal(saved[name], fleet.streams[name].core.get_state()) for name in saved
            )
            self.count(identical)
            self.check("restore_bit_identical", identical)
        counts = [call[2] for call in self.forwards.calls]
        self.detail.update(
            {
                "output_digest": self.digest.hexdigest(),
                "ticks": len(self.tick_forwards),
                "forwards_per_tick": histogram(self.tick_forwards),
                "batch_sizes": histogram(counts),
                "save_ms": [value * 1e3 for value in self.save_times],
                "restore_ms": [value * 1e3 for value in self.restore_times],
            }
        )

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()

    @property
    def server(self) -> Any:
        return self._server

    def layer_metrics(self, spans: List[tracing.Span]) -> None:
        saves, loads = self.checkpoint_intervals["save"], self.checkpoint_intervals["load"]
        get_state = sum(
            end - start for name, _, start, end, _ in spans
            if name == "streaming.get_state" and in_intervals(start, saves)
        )
        set_state = sum(
            end - start for name, _, start, end, _ in spans
            if name == "streaming.set_state" and in_intervals(start, loads)
        )
        reps = max(len(saves), 1)
        self.layers["fleet.save_ms"] = percentile(self.save_times, 50.0) * 1e3
        self.layers["fleet.restore_ms"] = percentile(self.restore_times, 50.0) * 1e3
        self.layers["streaming.get_state_ms"] = get_state / reps * 1e3
        self.layers["fleet.save_io_ms"] = (sum(self.save_times) - get_state) / reps * 1e3
        self.layers["streaming.set_state_ms"] = set_state / reps * 1e3


# ---------------------------------------------------------------------- #
# http_predict
# ---------------------------------------------------------------------- #
class HttpPredictWorkload(Workload):
    """Two keep-alive closed loops POST single windows to a cheap-model gateway."""

    name = "http_predict"

    def __init__(self, config: Dict[str, Any], seed: int, root: str, seconds: float) -> None:
        super().__init__(config, seed, root)
        self.gateway = None
        self.predict_ok = 0
        self.segment_count = 0
        self._expected = threading.local()

    def _start_gateway(self) -> Any:
        config = self.config
        server = InferenceServer(
            max_batch_size=config["max_batch"],
            max_wait_ms=config["max_wait_ms"],
            cache_size=config["cache_size"],
            num_workers=config["server_workers"],
        )
        server.deploy("bench", self.forwards.wrap(cheap_predict(config["horizon"])), version="v0")
        return Gateway(server).start()

    def setup(self) -> None:
        window = np.random.default_rng(self.seed).uniform(
            0.0, 120.0, size=(self.config["history"], self.config["nodes"])
        )
        for _ in range(self.config["setup_reps"]):
            if self.gateway is not None:
                self.gateway.stop()
            start = time.perf_counter()
            gateway = self._start_gateway()
            client = Client(gateway.url)
            try:
                status, raw, _ = client.request("POST", "/predict", {"window": window.tolist()})
            finally:
                client.close()
            self.setup_times.append(time.perf_counter() - start)
            self.gateway = gateway
            self.check("setup_predict", self._valid(status, json.loads(raw), window))

    def _valid(self, status: int, body: Any, window: np.ndarray) -> bool:
        """200, the model's exact mean, finite std, lower <= mean <= upper."""
        if status != 200 or not isinstance(body, dict):
            return False
        try:
            mean_ = np.asarray(body["mean"], dtype=np.float64)
            lower = np.asarray(body["lower"], dtype=np.float64)
            upper = np.asarray(body["upper"], dtype=np.float64)
            std = np.asarray(body["std"], dtype=np.float64)
        except (KeyError, TypeError, ValueError):
            return False
        horizon, nodes = self.config["horizon"], self.config["nodes"]
        expected = np.repeat(window.mean(axis=0, keepdims=True), horizon, axis=0)
        return (
            mean_.shape == (horizon, nodes)
            and body.get("horizon") == horizon
            and body.get("num_nodes") == nodes
            and bool(np.isfinite(std).all())
            and bool(np.allclose(mean_, expected, rtol=0.0, atol=1e-9))
            and bool((lower <= mean_).all() and (mean_ <= upper).all())
        )

    def segment(self, traced: bool, seconds: float) -> None:
        config = self.config
        expected = self._expected

        def payload(rng: np.random.Generator, index: int) -> Tuple[str, Dict[str, Any]]:
            window = rng.uniform(0.0, 120.0, size=(config["history"], config["nodes"]))
            expected.window = window
            return "/predict", {"window": window.tolist()}

        def validate(status: int, body: Any) -> bool:
            return self._valid(status, body, expected.window)

        self.segment_count += 1
        report = LoadGenerator(
            self.gateway.url,
            num_workers=config["clients"],
            seed=self.seed * 1_009 + self.segment_count,
            payload_fn=payload,
            validate_fn=validate,
        ).run(duration=seconds)
        self.attempted += report.requests
        self.failed += report.requests - report.ok
        self.predict_ok += report.ok
        self.check("responses", report.ok == report.requests)
        self.primary[traced].extend(report.latencies)
        self.primary_work[traced] += report.ok
        self.primary_time[traced] += report.duration

    def epilogue(self, tracer: Optional[tracing.Tracer]) -> None:
        # The surviving gateway also answered its own set-up request.
        self.check("scrape_count", scraped_predict_ok(self.gateway.url) == self.predict_ok + 1)
        self.detail["batch_sizes"] = histogram(call[2] for call in self.forwards.calls)

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()

    @property
    def server(self) -> Any:
        return self.gateway.server


def scraped_predict_ok(url: str) -> float:
    """``gateway_requests_total{route="/predict",code="200"}`` from one scrape."""
    client = Client(url)
    try:
        status, raw, _ = client.request("GET", "/metrics")
    finally:
        client.close()
    if status != 200:
        return float("nan")
    series = parse_prometheus_text(raw.decode("utf-8"))
    return series.get("gateway_requests_total", {}).get(
        (("code", "200"), ("route", "/predict")), 0.0
    )


# ---------------------------------------------------------------------- #
# gateway_mixed
# ---------------------------------------------------------------------- #
class GatewayMixedWorkload(Workload):
    """Fleet ticks over HTTP (with scrapes) beside single predicts, one gateway."""

    name = "gateway_mixed"

    def __init__(self, config: Dict[str, Any], seed: int, root: str, seconds: float) -> None:
        super().__init__(config, seed, root)
        self.warm_ticks = config["history"]
        self.steps = self.warm_ticks + int(seconds / 0.01) + 8
        self.rows = feed_rows(config, seed, self.steps)
        self.names = [f"c{index}" for index in range(config["streams"])]
        self.gateway = None
        self.t = 0
        self.requests = 0
        self.predict_ok = 0
        self.predict_rng = np.random.default_rng(seed * 7_919 + 1)
        self.observe_latency: Dict[bool, List[float]] = {False: [], True: []}
        self.scrape_latency: Dict[bool, List[float]] = {False: [], True: []}
        self.clients: Tuple[Any, Any] = (None, None)

    def _observe_body(self, t: int) -> Dict[str, Any]:
        if t >= self.steps:
            t = self.warm_ticks + (t - self.warm_ticks) % (self.steps - self.warm_ticks)
        return {
            "observations": {
                name: self.rows[index, t].tolist() for index, name in enumerate(self.names)
            }
        }

    def _valid_observe(self, status: int, raw: bytes, tick: int, warm: bool) -> bool:
        if status != 200:
            return False
        body = json.loads(raw)
        streams = body.get("streams", {})
        return (
            body.get("tick") == tick
            and set(streams) == set(self.names)
            and (not warm or all(entry["forecast_ready"] for entry in streams.values()))
        )

    def setup(self) -> None:
        for _ in range(self.config["setup_reps"]):
            self.close()
            start = time.perf_counter()
            server = agcrn_server(self.config, self.forwards.wrap(agcrn_predict(self.config, self.seed)))
            server.start()
            fleet, engine = build_fleet(self.config, server)
            gateway = Gateway(server, fleet=fleet, slo=engine).start()
            client = Client(gateway.url)
            for t in range(self.warm_ticks):
                status, raw, _ = client.request("POST", "/observe", self._observe_body(t))
                self.check("observe", self._valid_observe(status, raw, t, t >= self.config["history"] - 1))
            self.setup_times.append(time.perf_counter() - start)
            self.gateway = gateway
            self.clients = (client, Client(gateway.url))
        self.t = self.warm_ticks

    def _ticker(self, traced: bool, deadline: float, errors: List[Exception]) -> None:
        client = self.clients[0]
        try:
            while time.perf_counter() < deadline:
                self.requests += 1
                if self.requests % self.config["scrape_every"] == 0:
                    status, raw, latency = client.request("GET", "/metrics")
                    ok = status == 200 and "gateway_requests_total" in parse_prometheus_text(
                        raw.decode("utf-8")
                    )
                    self.scrape_latency[traced].append(latency)
                else:
                    status, raw, latency = client.request("POST", "/observe", self._observe_body(self.t))
                    ok = self._valid_observe(status, raw, self.t, True)
                    self.t += 1
                    self.observe_latency[traced].append(latency)
                self.count(ok)
                self.check("ticker", ok)
        except Exception as error:  # re-raised by segment()
            errors.append(error)

    def _predictor(self, traced: bool, deadline: float, errors: List[Exception]) -> None:
        client = self.clients[1]
        history = self.config["history"]
        nodes = self.config["grid"][0] * self.config["grid"][1]
        try:
            while time.perf_counter() < deadline:
                window = self.predict_rng.uniform(0.0, 120.0, size=(history, nodes))
                status, raw, latency = client.request("POST", "/predict", {"window": window.tolist()})
                ok = status == 200 and _valid_interval(json.loads(raw), (self.config["horizon"], nodes))
                self.count(ok)
                self.predict_ok += 1 if ok else 0
                self.check("predict", ok)
                self.primary[traced].append(latency)
                self.primary_work[traced] += 1 if ok else 0
        except Exception as error:  # re-raised by segment()
            errors.append(error)

    def segment(self, traced: bool, seconds: float) -> None:
        start = time.perf_counter()
        deadline = start + seconds
        errors: List[Exception] = []
        threads = [
            threading.Thread(target=self._ticker, args=(traced, deadline, errors)),
            threading.Thread(target=self._predictor, args=(traced, deadline, errors)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.primary_time[traced] += time.perf_counter() - start
        if errors:
            raise errors[0]

    def warm_up(self, seconds: float) -> None:
        super().warm_up(seconds)
        self.observe_latency[False].clear()
        self.scrape_latency[False].clear()

    def epilogue(self, tracer: Optional[tracing.Tracer]) -> None:
        self.check("scrape_count", scraped_predict_ok(self.gateway.url) == self.predict_ok)
        self.detail["batch_sizes"] = histogram(call[2] for call in self.forwards.calls)
        self.detail["observe"] = timing_summary(self.observe_latency[False], TAIL_Q)
        self.detail["scrape"] = timing_summary(self.scrape_latency[False], 50.0)

    def close(self) -> None:
        for client in self.clients:
            if client is not None:
                client.close()
        self.clients = (None, None)
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None

    @property
    def server(self) -> Any:
        return self.gateway.server

    def layer_metrics(self, spans: List[tracing.Span]) -> None:
        ticks = tracing.durations(spans, "fleet.tick")
        self.layers["gateway.observe_overhead_ms"] = (
            (mean(self.observe_latency[True]) - mean(ticks)) * 1e3 if ticks else 0.0
        )
        observe, scrape = self.observe_latency[False], self.scrape_latency[False]
        self.layers["gateway.observe_p50_ms"] = percentile(observe, 50.0) * 1e3
        self.layers["gateway.observe_p90_ms"] = percentile(observe, 90.0) * 1e3
        self.layers["gateway.scrape_p50_ms"] = percentile(scrape, 50.0) * 1e3


def _valid_interval(body: Any, shape: Tuple[int, int]) -> bool:
    try:
        mean_ = np.asarray(body["mean"], dtype=np.float64)
        lower = np.asarray(body["lower"], dtype=np.float64)
        upper = np.asarray(body["upper"], dtype=np.float64)
    except (KeyError, TypeError, ValueError):
        return False
    return (
        mean_.shape == shape
        and bool(np.isfinite(mean_).all() and np.isfinite(lower).all() and np.isfinite(upper).all())
        and bool((lower <= mean_).all() and (mean_ <= upper).all())
    )


WORKLOADS = {
    "fleet_256": FleetWorkload,
    "http_predict": HttpPredictWorkload,
    "gateway_mixed": GatewayMixedWorkload,
}
