"""``/metrics`` reads the live fleet and the event logs' own per-kind counts.

The renderer used to build ``fleet.snapshot()`` on every scrape, which
JSON-encodes every stream's whole event history, and the SLO fleet source
re-counted every log on every tick.  Both now read ``EventLog.counts``,
kept as events are appended.  The snapshot-based renderer is frozen below
as the reference the live one must match series for series.
"""

from collections import Counter

import numpy as np
import pytest

from repro.fleet import SpatialDriftAggregator, StreamFleet
from repro.gateway import Gateway
from repro.gateway.metrics import (
    MAX_METRIC_STREAMS,
    _STREAM_METRIC_KEYS,
    _Exposition,
    _render_gateway,
    _render_obs,
    _render_server,
    _render_slo,
    parse_prometheus_text,
    render_prometheus,
)
from repro.graph import grid_network
from repro.obs.slo import SLOEngine, default_slos, fleet_source
from repro.serving import InferenceServer
from repro.streaming import DriftEvent, EventLog, PersistenceForecaster, RefitPolicy

HISTORY, HORIZON = 3, 2
NUM_STREAMS = 6
MAX_STREAMS = 4  # fewer than NUM_STREAMS: the cardinality cap drops two


# --------------------------------------------------------------------------- #
# The snapshot-based fleet rendering, frozen as it was before the renderer
# read the live fleet.
# --------------------------------------------------------------------------- #
def _frozen_render_fleet(exp, snapshot, max_streams=MAX_METRIC_STREAMS):
    dropped_series = 0
    exp.add("repro_fleet_tick", "counter", "Fleet ticks completed.", snapshot["tick"])
    exp.add(
        "repro_fleet_streams",
        "gauge",
        "Streams registered in the fleet.",
        snapshot["num_streams"],
    )
    fleet_kinds = Counter(event["kind"] for event in snapshot.get("events", ()))
    for kind, count in sorted(fleet_kinds.items()):
        exp.add(
            "repro_fleet_events_total",
            "counter",
            "Fleet-level events (spatial incidents, refit coordination), by kind.",
            count,
            {"kind": kind},
        )
    for index, (name, stream) in enumerate(sorted(snapshot.get("streams", {}).items())):
        if index >= max_streams:
            stream_metrics = stream.get("metrics", {})
            dropped_series += 2  # step + warmed_up
            dropped_series += sum(1 for key in _STREAM_METRIC_KEYS if key in stream_metrics)
            dropped_series += len({event["kind"] for event in stream.get("events", ())})
            continue
        labels = {"stream": name}
        exp.add(
            "repro_stream_step",
            "counter",
            "Observations ingested by the stream.",
            stream["step"],
            labels,
        )
        exp.add(
            "repro_stream_warmed_up",
            "gauge",
            "1 once the stream's history window is full.",
            1 if stream["warmed_up"] else 0,
            labels,
        )
        stream_metrics = stream.get("metrics", {})
        for key in _STREAM_METRIC_KEYS:
            if key in stream_metrics:
                exp.add(
                    f"repro_stream_{key}",
                    "gauge",
                    f"Rolling {key} of the stream's monitor window.",
                    stream_metrics[key],
                    labels,
                )
        kinds = Counter(event["kind"] for event in stream.get("events", ()))
        for kind, count in sorted(kinds.items()):
            exp.add(
                "repro_stream_events_total",
                "counter",
                "Per-stream drift/lifecycle events, by kind.",
                count,
                {"stream": name, "kind": kind},
            )
    refits = snapshot.get("refits")
    if refits is not None:
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
    spatial = snapshot.get("spatial")
    if spatial is not None:
        exp.add(
            "repro_fleet_spatial_incidents_total",
            "counter",
            "Spatial incidents fired by the corridor-graph aggregator.",
            spatial["incidents"],
        )
    return dropped_series


def _frozen_render_prometheus(gateway):
    exp = _Exposition()
    _render_gateway(exp, gateway)
    dropped_series = 0
    fleet = getattr(gateway, "fleet", None)
    if fleet is not None:
        snapshot = fleet.snapshot()
        dropped_series = _frozen_render_fleet(
            exp,
            snapshot,
            max_streams=getattr(gateway, "max_metric_streams", MAX_METRIC_STREAMS),
        )
        server_stats = snapshot.get("server")
    else:
        server_stats = None
    if server_stats is None:
        server_stats = gateway.server.stats
    _render_server(exp, server_stats)
    _render_obs(exp, dropped_series)
    slo = getattr(gateway, "slo", None)
    if slo is not None:
        _render_slo(exp, slo)
    return exp.text()


# --------------------------------------------------------------------------- #
# A small fleet with drift events, a refit and a spatial incident
# --------------------------------------------------------------------------- #
class _KindDetector:
    """Fires its own event kind at fixed steps."""

    kind = "sensor_fault"
    signal = "abs_error"

    def __init__(self, steps):
        self.steps = set(steps)

    def update(self, step, value):
        if step not in self.steps:
            return None
        return DriftEvent(
            kind=self.kind, step=step, value=1.0, threshold=0.0, message="stuck sensor"
        )

    def reset(self):
        pass


@pytest.fixture
def live_gateway():
    network = grid_network(2, 3)
    rng = np.random.default_rng(7)
    rows = 50.0 + rng.normal(size=(30, NUM_STREAMS, network.num_nodes))
    server = InferenceServer(max_batch_size=8, max_wait_ms=1.0, cache_size=0)
    server.deploy("incumbent", PersistenceForecaster(horizon=HORIZON, sigma=1.0))
    detectors = iter(
        [_KindDetector({12, 20} if index % 2 else {12}) for index in range(NUM_STREAMS)]
    )
    with server:
        fleet = StreamFleet(
            server, HISTORY, HORIZON,
            detector_factory=lambda: [next(detectors)],
            refit_fn=lambda region, recents: PersistenceForecaster(
                horizon=HORIZON, sigma=2.0
            ),
            refit_policy=RefitPolicy(
                quorum=3, window=3, mode="immediate", cooldown=10_000, background=False
            ),
            spatial=SpatialDriftAggregator(
                network.adjacency_matrix(weighted=False),
                window=3,
                min_cluster=3,
                watch_kinds=("sensor_fault",),
            ),
        )
        for index in range(NUM_STREAMS):
            fleet.add_stream(f"c{index}", region="r", node=index)
        engine = fleet.attach_slo(SLOEngine(default_slos()))
        for t in range(len(rows)):
            fleet.tick({f"c{index}": rows[t, index] for index in range(NUM_STREAMS)})
        gateway = Gateway(server, fleet=fleet, slo=engine, max_metric_streams=MAX_STREAMS)
        yield gateway


class TestLiveRendering:
    def test_scenario_has_what_the_renderer_must_cover(self, live_gateway):
        fleet = live_gateway.fleet
        kinds = fleet.event_log.counts
        assert kinds["region_refit_started"] == 1
        assert kinds["spatial_incident"] >= 1
        assert fleet["c1"].core.event_log.counts == {"sensor_fault": 2}
        assert len(fleet.streams) > live_gateway.max_metric_streams

    def test_matches_the_snapshot_based_rendering(self, live_gateway):
        frozen = parse_prometheus_text(_frozen_render_prometheus(live_gateway))
        live = parse_prometheus_text(render_prometheus(live_gateway))
        assert _comparable(live) == _comparable(frozen)
        assert live["repro_fleet_spatial_incidents_total"][()] >= 1
        assert live["repro_fleet_refit_triggers_total"][()] == 1
        assert live["obs_dropped_series_total"][()] == 2 * (2 + len(_STREAM_METRIC_KEYS) + 1)
        assert (
            live["repro_stream_events_total"][(("kind", "sensor_fault"), ("stream", "c1"))]
            == 2
        )

    def test_logs_whose_history_cannot_be_walked_still_sample_and_render(
        self, live_gateway
    ):
        fleet = live_gateway.fleet
        sampled = fleet_source(fleet)()
        rendered = parse_prometheus_text(render_prometheus(live_gateway))
        logs = [fleet.event_log] + [stream.core.event_log for stream in fleet.streams.values()]
        for log in logs:
            log.events = _Unwalkable(log.events)
        assert fleet_source(fleet)() == sampled
        assert _comparable(parse_prometheus_text(render_prometheus(live_gateway))) == (
            _comparable(rendered)
        )
        with pytest.raises(AssertionError, match="walked"):
            fleet.snapshot()  # the old path read every event


def _comparable(series):
    """Parsed series with NaN made equal to itself and the wall-clock uptime
    (which moves between two scrapes) left out."""
    return {
        name: {
            labels: "NaN" if value != value else value for labels, value in samples.items()
        }
        for name, samples in series.items()
        if name != "gateway_uptime_seconds"
    }


class _Unwalkable(list):
    """An event list that fails any reader iterating it."""

    def __iter__(self):
        raise AssertionError("a metrics reader walked the event history")


class TestEventLogCounts:
    def _event(self, kind, step=0):
        return DriftEvent(kind=kind, step=step, value=0.0, threshold=0.0)

    def test_append_counts_each_kind(self):
        log = EventLog()
        for kind in ("a", "b", "a"):
            log.append(self._event(kind))
        assert log.counts == {"a": 2, "b": 1}

    def test_restored_log_agrees(self):
        log = EventLog()
        for step, kind in enumerate(("x", "y", "x", "x")):
            log.append(self._event(kind, step))
        restored = EventLog.from_records(log.to_records())
        assert restored.counts == log.counts == {"x": 3, "y": 1}
        restored.append(self._event("y"))
        assert restored.counts == {"x": 3, "y": 2}
