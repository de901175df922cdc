"""Spatial drift aggregation: correlated breaches → one incident event."""

import json

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.data import StreamingTrafficFeed
from repro.data.synthetic import SyntheticTrafficConfig
from repro.graph import grid_network
from repro.serving import InferenceServer, KeyRouter
from repro.streaming import DriftEvent, ErrorCusumDetector, PersistenceForecaster
from repro.fleet import SpatialDriftAggregator, StreamFleet


def _breach(step, kind="coverage_breach"):
    return [DriftEvent(kind=kind, step=step, value=0.0, threshold=0.0)]


class TestAggregatorUnit:
    """Deterministic, detector-free behaviour on a 3x3 corridor grid."""

    @pytest.fixture
    def adjacency(self):
        return grid_network(3, 3).adjacency_matrix(weighted=False)

    def test_connected_cluster_fires_one_event(self, adjacency):
        aggregator = SpatialDriftAggregator(adjacency, window=10, min_cluster=3)
        # nodes 1, 4, 7 form a connected column of the grid
        for step, node in enumerate((1, 4, 7)):
            aggregator.observe(node, f"s{node}", _breach(step), step)
        event = aggregator.poll(3)
        assert event is not None
        assert event.kind == "spatial_incident"
        assert event.value == 3.0
        for name in ("s1", "s4", "s7"):
            assert name in event.message
        assert aggregator.incidents == 1

    def test_scattered_breaches_do_not_fire(self, adjacency):
        aggregator = SpatialDriftAggregator(adjacency, window=10, min_cluster=3)
        # corners 0, 2, 6 are pairwise non-adjacent
        for node in (0, 2, 6):
            aggregator.observe(node, f"s{node}", _breach(0), 0)
        assert aggregator.poll(1) is None

    def test_breaches_expire_out_of_the_window(self, adjacency):
        aggregator = SpatialDriftAggregator(adjacency, window=5, min_cluster=3)
        aggregator.observe(1, "s1", _breach(0), 0)
        aggregator.observe(4, "s4", _breach(1), 1)
        aggregator.observe(7, "s7", _breach(20), 20)  # the others are stale
        assert aggregator.poll(20) is None

    def test_cooldown_silences_repeat_firings(self, adjacency):
        aggregator = SpatialDriftAggregator(adjacency, window=50, min_cluster=2, cooldown=30)
        aggregator.observe(0, "s0", _breach(0), 0)
        aggregator.observe(1, "s1", _breach(0), 0)
        assert aggregator.poll(0) is not None
        aggregator.observe(0, "s0", _breach(5), 5)
        assert aggregator.poll(5) is None          # still cooling down
        aggregator.observe(0, "s0", _breach(31), 31)
        aggregator.observe(1, "s1", _breach(31), 31)
        assert aggregator.poll(31) is not None     # re-armed

    def test_unwatched_kinds_are_ignored(self, adjacency):
        aggregator = SpatialDriftAggregator(adjacency, window=10, min_cluster=1)
        aggregator.observe(0, "s0", _breach(0, kind="recalibrated"), 0)
        assert aggregator.poll(0) is None

    def test_unmapped_stream_is_a_noop(self, adjacency):
        aggregator = SpatialDriftAggregator(adjacency, window=10, min_cluster=1)
        aggregator.observe(None, "s?", _breach(0), 0)
        assert aggregator.poll(0) is None

    def test_bad_node_rejected(self, adjacency):
        aggregator = SpatialDriftAggregator(adjacency, window=10, min_cluster=1)
        with pytest.raises(IndexError):
            aggregator.observe(99, "s99", _breach(0), 0)


def _line(nodes):
    """Adjacency of ``nodes`` corridors in a row: 0 - 1 - 2 - ..."""
    adjacency = np.zeros((nodes, nodes))
    for node in range(nodes - 1):
        adjacency[node, node + 1] = adjacency[node + 1, node] = 1.0
    return adjacency


class _StepDetector:
    """Fires a ``sensor_fault`` at fixed stream steps; stateless."""

    kind = "sensor_fault"
    signal = "abs_error"

    def __init__(self, steps):
        self.steps = set(steps)

    def update(self, step, value):
        if step not in self.steps:
            return None
        return DriftEvent(kind=self.kind, step=step, value=1.0, threshold=0.0)

    def reset(self):
        pass


class TestAggregatorCheckpoint:
    """The aggregator's clocks and count survive a fleet save and restore."""

    def test_state_round_trips_through_json_with_int_nodes(self):
        aggregator = SpatialDriftAggregator(_line(4), window=10, min_cluster=2, cooldown=5)
        aggregator.observe(1, "s1", _breach(3), 3)
        aggregator.observe(2, "s2", _breach(4), 4)
        aggregator.observe(3, "s3", [], 4)
        assert aggregator.poll(4) is not None

        restored = SpatialDriftAggregator(_line(4), window=10, min_cluster=2, cooldown=5)
        restored.set_state(json.loads(json.dumps(aggregator.get_state())))
        assert restored._last_breach == {1: 3, 2: 4}
        assert restored._stream_of == {1: "s1", 2: "s2", 3: "s3"}
        assert restored._last_fired == 4
        assert restored.incidents == 1
        assert restored.get_state() == aggregator.get_state()

    @staticmethod
    def _incidents(restart_at=None, tmp_path=None, ticks=24):
        """4 streams on a line, all faulting at steps 10 and 18, cooldown 20."""
        rows = 50.0 + np.random.default_rng(0).normal(size=(ticks, 4, 2))

        def options():
            return dict(
                detector_factory=lambda: [_StepDetector({10, 18})],
                spatial=SpatialDriftAggregator(
                    _line(4), window=3, min_cluster=3, cooldown=20,
                    watch_kinds=("sensor_fault",),
                ),
            )

        server = InferenceServer(max_batch_size=8, max_wait_ms=1.0, cache_size=0)
        server.deploy("persist", PersistenceForecaster(horizon=2, sigma=1.0))
        with server:
            fleet = StreamFleet(server, 3, 2, **options())
            for node in range(4):
                fleet.add_stream(f"c{node}", node=node)
            for tick in range(ticks):
                if tick == restart_at:
                    fleet.save(tmp_path / "ckpt")
                    fleet = StreamFleet.load(tmp_path / "ckpt", server, **options())
                fleet.tick({f"c{node}": rows[tick, node] for node in range(4)})
        steps = [e.step for e in fleet.event_log if e.kind == "spatial_incident"]
        return steps, fleet.spatial.incidents

    def test_restore_inside_the_cooldown_does_not_refire(self, tmp_path):
        assert self._incidents() == ([10], 1)
        # Saved and restored at tick 14, between the two faults: the
        # restored aggregator still cools down from tick 10, and its
        # incident count (repro_fleet_spatial_incidents_total) carries on.
        assert self._incidents(restart_at=14, tmp_path=tmp_path) == ([10], 1)

    def test_manifest_without_spatial_state_restores_a_fresh_aggregator(self, tmp_path):
        self._incidents(restart_at=14, tmp_path=tmp_path)
        manifest_path = tmp_path / "ckpt" / "fleet" / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["spatial"]["incidents"] == 1
        del manifest["spatial"]
        manifest_path.write_text(json.dumps(manifest))
        with InferenceServer(cache_size=0) as server:
            fleet = StreamFleet.load(
                tmp_path / "ckpt", server,
                spatial=SpatialDriftAggregator(_line(4), window=3, min_cluster=3),
            )
        assert fleet.spatial.get_state() == {
            "last_breach": {}, "stream_of": {}, "last_fired": None, "incidents": 0,
        }


HISTORY, HORIZON = 6, 2
STEPS = 160
STORM_AT, STORM_LEN = 80, 40
FLAT = SyntheticTrafficConfig(peak_amplitude=0.0, weekend_attenuation=1.0)


class TwinOracle:
    """Predicts one corridor's *no-storm* clean signal (per-corridor deployment).

    Each corridor runs its own deployment behind the fleet's KeyRouter, so
    this oracle sees exactly one window per tick and can track the stream
    position by call count — all residual error is then observation noise
    plus whatever the scripted storm removed from the real feed.
    """

    def __init__(self, clean: np.ndarray, sigma: float) -> None:
        self.clean = clean
        self.sigma = float(sigma)
        self.calls = 0

    def predict(self, windows: np.ndarray) -> PredictionResult:
        assert windows.shape[0] == 1
        t = HISTORY - 1 + self.calls
        self.calls += 1
        last = self.clean.shape[0] - 1
        mean = np.stack(
            [self.clean[min(t + h, last)] for h in range(1, HORIZON + 1)]
        )[None]
        variance = np.full_like(mean, self.sigma ** 2)
        return PredictionResult(
            mean=mean, aleatoric_var=variance, epistemic_var=np.zeros_like(mean)
        )


class TestIncidentStormIntegration:
    """An incident storm on neighboring corridors → one spatial incident."""

    #: Connected 2x2 block in the middle of the 4x4 corridor grid.
    CLUSTER = (5, 6, 9, 10)

    @pytest.fixture(scope="class")
    def storm_run(self):
        corridor_graph = grid_network(4, 4)
        sensors = grid_network(2, 2)  # each corridor observes 4 sensors
        num_corridors = corridor_graph.num_nodes

        feeds, oracles = {}, {}
        for node in range(num_corridors):
            name = f"c{node}"
            if node in self.CLUSTER:
                feeds[name] = StreamingTrafficFeed.scenario(
                    sensors, "incident_storm", num_steps=STEPS, seed=node,
                    start=STORM_AT, duration=STORM_LEN, rate=0.5, severity=0.7,
                    config=FLAT,
                )
            else:
                feeds[name] = StreamingTrafficFeed(
                    sensors, num_steps=STEPS, seed=node, config=FLAT
                )
            # the twin shares the seed but no events: its clean signal is
            # what a drift-free model of this corridor would predict
            twin = StreamingTrafficFeed(sensors, num_steps=STEPS, seed=node, config=FLAT)
            oracles[name] = TwinOracle(twin.clean, sigma=20.0)

        server = InferenceServer(
            cache_size=0, max_batch_size=64, max_wait_ms=2.0,
            router=KeyRouter({f"c{i}": f"oracle-c{i}" for i in range(num_corridors)}),
        )
        for node in range(num_corridors):
            server.deploy(f"oracle-c{node}", oracles[f"c{node}"], version="v0")
        with server:
            fleet = StreamFleet(
                server, HISTORY, HORIZON,
                aci={"window": 400, "gamma": 0.01},
                detector_factory=lambda: [
                    # 25 keeps the 12 clean corridors silent for the whole
                    # run while the 70%-severity storm still fires the
                    # cluster within ~3 ticks of its onset.
                    ErrorCusumDetector(slack=1.0, threshold=25.0, warmup=60)
                ],
                spatial=SpatialDriftAggregator(
                    corridor_graph.adjacency_matrix(weighted=False),
                    window=30, min_cluster=3, cooldown=STEPS,
                ),
            )
            for node in range(num_corridors):
                fleet.add_stream(f"c{node}", node=node)
            fleet.run({name: iter(feed) for name, feed in feeds.items()})
        return fleet

    def test_exactly_one_spatial_incident(self, storm_run):
        fleet = storm_run
        incidents = [e for e in fleet.event_log if e.kind == "spatial_incident"]
        assert len(incidents) == 1
        (incident,) = incidents
        assert STORM_AT <= incident.step <= STORM_AT + STORM_LEN
        assert incident.value >= 3

    def test_incident_names_the_storm_cluster(self, storm_run):
        fleet = storm_run
        (incident,) = [e for e in fleet.event_log if e.kind == "spatial_incident"]
        named = {name for name in incident.message.split(": ")[1].split(", ")}
        assert named <= {f"c{node}" for node in self.CLUSTER}

    def test_clean_corridors_never_breach(self, storm_run):
        fleet = storm_run
        outside = [
            name
            for name, stream in fleet.streams.items()
            if int(name[1:]) not in self.CLUSTER
            and any(e.kind == "error_cusum" for e in stream.core.event_log)
        ]
        assert outside == []

    def test_per_corridor_deployments_served_their_streams(self, storm_run):
        fleet = storm_run
        stats = fleet.server.stats
        warm_ticks = STEPS - HISTORY + 1
        for node in (0, 5, 15):
            assert stats["deployments"][f"oracle-c{node}"]["requests_served"] == warm_ticks
        assert stats["route_fallbacks"] == 0
