"""Fleet ticks: shared batched predicts, single-stream equivalence, ops."""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.data import StreamingTrafficFeed
from repro.graph import grid_network
from repro.serving import InferenceServer, KeyRouter
from repro.streaming import (
    CoverageBreachDetector,
    DriftEvent,
    PersistenceForecaster,
    RefitPolicy,
    StreamingForecaster,
)
from repro.fleet import FleetStream, StreamFleet

HISTORY, HORIZON = 8, 4
STEPS = 60


@pytest.fixture(scope="module")
def network():
    return grid_network(2, 2)


def _feeds(network, n, steps=STEPS):
    return {f"c{i}": StreamingTrafficFeed(network, num_steps=steps, seed=i) for i in range(n)}


def _server(max_batch_size=64):
    model = PersistenceForecaster(horizon=HORIZON, sigma=20.0)
    return InferenceServer(
        model.predict, model_version="base", max_batch_size=max_batch_size, max_wait_ms=2.0
    )


class TestBatchedTick:
    def test_tick_returns_per_stream_results(self, network):
        feeds = _feeds(network, 6)
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            for name in feeds:
                fleet.add_stream(name)
            results = fleet.run({name: iter(feed) for name, feed in feeds.items()})
        assert len(results) == STEPS
        last = results[-1]
        assert set(dict(last)) == set(feeds)
        for name in feeds:
            step = last[name]
            assert step.prediction is not None
            assert step.prediction.mean.shape == (1, HORIZON, network.num_nodes)
            assert step.lower.shape == (HORIZON, network.num_nodes)
            assert np.all(step.lower <= step.upper)

    def test_predicts_are_batched_not_sequential(self, network):
        """A tick over N warm streams must coalesce into few micro-batches."""
        n = 8
        feeds = _feeds(network, n)
        with _server(max_batch_size=64) as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            for name in feeds:
                fleet.add_stream(name)
            fleet.run({name: iter(feed) for name, feed in feeds.items()})
            stats = server.stats
        warm_ticks = STEPS - HISTORY + 1
        assert stats["requests_served"] == n * warm_ticks
        # Perfect coalescing would be one batch per tick; allow a little
        # dispatcher jitter but demand far fewer batches than requests.
        assert stats["batches_dispatched"] <= warm_ticks * 2
        assert stats["mean_batch_size"] >= n / 2

    def test_unknown_stream_rejected(self, network):
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            fleet.add_stream("known")
            with pytest.raises(KeyError, match="unknown"):
                fleet.tick({"unknown": np.zeros(network.num_nodes)})

    def test_duplicate_stream_rejected(self, network):
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            fleet.add_stream("c0")
            with pytest.raises(ValueError, match="already exists"):
                fleet.add_stream("c0")

    def test_malformed_row_rejected_before_any_stream_mutates(self, network):
        feeds = _feeds(network, 2)
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            fleet.add_stream("c0")
            fleet.add_stream("c1")
            iterators = {name: iter(feed) for name, feed in feeds.items()}
            for _ in range(3):
                fleet.tick({name: next(it) for name, it in iterators.items()})
            with pytest.raises(ValueError, match="sensors per row"):
                fleet.tick({
                    "c0": next(iterators["c0"]),
                    "c1": np.zeros(network.num_nodes + 1),
                })
            # the failed tick mutated nothing: both streams stayed in sync
            assert fleet["c0"].core.step == 3
            assert fleet["c1"].core.step == 3
            result = fleet.tick({name: next(it) for name, it in iterators.items()})
            assert set(result.results) == {"c0", "c1"}

    def test_duplicate_spatial_node_rejected(self, network):
        from repro.fleet import SpatialDriftAggregator

        with _server() as server:
            fleet = StreamFleet(
                server, HISTORY, HORIZON,
                spatial=SpatialDriftAggregator(network.adjacency_matrix(weighted=False)),
            )
            fleet.add_stream("a", node=1)
            with pytest.raises(ValueError, match="already mapped"):
                fleet.add_stream("b", node=1)

    def test_path_hostile_stream_names_rejected(self, network):
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            for bad in ("", "a/b", "a\\b", "..", "."):
                with pytest.raises(ValueError, match="path component"):
                    fleet.add_stream(bad)

    def test_add_streams_rejects_shared_stateful_instances(self, network):
        from repro.streaming import CoverageBreachDetector

        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            with pytest.raises(ValueError, match="detector_factory"):
                fleet.add_streams(["a", "b"], detectors=[CoverageBreachDetector()])

    def test_node_outside_spatial_graph_rejected_at_registration(self, network):
        from repro.fleet import SpatialDriftAggregator

        with _server() as server:
            fleet = StreamFleet(
                server, HISTORY, HORIZON,
                spatial=SpatialDriftAggregator(network.adjacency_matrix(weighted=False)),
            )
            fleet.add_stream("ok", node=network.num_nodes - 1)
            with pytest.raises(IndexError, match="out of range"):
                fleet.add_stream("bad", node=network.num_nodes)

    def test_run_drains_unequal_feeds_without_dropping_rows(self, network):
        short = StreamingTrafficFeed(network, num_steps=20, seed=0)
        long = StreamingTrafficFeed(network, num_steps=35, seed=1)
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            fleet.add_stream("short")
            fleet.add_stream("long")
            results = fleet.run({"short": iter(short), "long": iter(long)})
        # every fetched row was ticked: the long stream keeps going alone
        assert len(results) == 35
        assert fleet["short"].core.step == 20
        assert fleet["long"].core.step == 35
        assert set(results[-1].results) == {"long"}

    def test_timeout_bounds_the_tick_not_each_future(self, network):
        """A hung deployment costs one ``timeout`` per tick, not one per stream."""
        rows = {name: list(feed) for name, feed in _feeds(network, 6).items()}
        model = PersistenceForecaster(horizon=HORIZON, sigma=20.0)
        released = threading.Event()
        released.set()

        def predict(windows):
            released.wait(timeout=30.0)
            return model.predict(windows)

        server = InferenceServer(predict, max_batch_size=64, max_wait_ms=2.0)
        with server:
            fleet = StreamFleet(server, HISTORY, HORIZON, timeout=0.2)
            for name in rows:
                fleet.add_stream(name)
            for t in range(HISTORY):
                fleet.tick({name: rows[name][t] for name in rows})
            released.clear()
            try:
                start = time.perf_counter()
                hung = fleet.tick({name: rows[name][HISTORY] for name in rows})
                elapsed = time.perf_counter() - start
            finally:
                released.set()
            recovered = fleet.tick({name: rows[name][HISTORY + 1] for name in rows})
        assert elapsed < 0.5
        failed = [event for event in hung.events if event.kind == "stream_predict_failed"]
        assert sorted(event.message.split(":")[0] for event in failed) == sorted(rows)
        assert all(step.prediction is None for step in hung.results.values())
        assert all(step.prediction is not None for step in recovered.results.values())

    def test_partial_tick_skips_unobserved_streams(self, network):
        feeds = _feeds(network, 2)
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            fleet.add_stream("c0")
            fleet.add_stream("c1")
            rows = list(feeds["c0"])
            for row in rows[:10]:
                fleet.tick({"c0": row})
            result = fleet.tick({"c0": rows[10], "c1": next(iter(feeds["c1"]))})
        assert fleet["c0"].core.step == 11
        assert fleet["c1"].core.step == 1
        assert set(result.results) == {"c0", "c1"}


class TestSingleStreamEquivalence:
    def test_one_stream_fleet_matches_streaming_forecaster(self, network):
        """The fleet path (through the shared server) must be bit-identical
        to the extracted single-stream loop for a deterministic model."""
        feed_args = dict(num_steps=STEPS, seed=3)
        fleet_feed = StreamingTrafficFeed(network, **feed_args)
        solo_feed = StreamingTrafficFeed(network, **feed_args)

        solo = StreamingForecaster(
            PersistenceForecaster(horizon=HORIZON, sigma=20.0),
            history=HISTORY,
            horizon=HORIZON,
            aci={"window": 500},
        )
        solo_results = solo.run(solo_feed)

        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON, aci={"window": 500})
            fleet.add_stream("only")
            fleet_results = fleet.run({"only": iter(fleet_feed)})

        for solo_step, fleet_tick in zip(solo_results, fleet_results):
            fleet_step = fleet_tick["only"]
            assert solo_step.step == fleet_step.step
            np.testing.assert_array_equal(solo_step.observed, fleet_step.observed)
            if solo_step.prediction is None:
                assert fleet_step.prediction is None
                continue
            np.testing.assert_array_equal(solo_step.lower, fleet_step.lower)
            np.testing.assert_array_equal(solo_step.upper, fleet_step.upper)
            np.testing.assert_array_equal(
                solo_step.prediction.mean, fleet_step.prediction.mean
            )
        assert solo.monitor.snapshot() == fleet["only"].core.monitor.snapshot()


class _Offset:
    """Persistence plus a constant bias: a refit candidate (offset 0 as good
    as the incumbent, offset 40 grossly degraded)."""

    def __init__(self, offset):
        self.offset = float(offset)
        self.inner = PersistenceForecaster(horizon=2, sigma=1.0)

    def predict(self, windows):
        result = self.inner.predict(windows)
        return PredictionResult(
            mean=result.mean + self.offset,
            aleatoric_var=result.aleatoric_var,
            epistemic_var=result.epistemic_var,
        )


def _regime_shift_rows(seed=42, quiet=60, loud=240, nodes=4):
    """The regime-shift stream of tests/streaming/test_promotion.py."""
    rng = np.random.default_rng(seed)
    calm = 50.0 + rng.normal(size=(quiet, nodes))
    shifted = 120.0 + rng.normal(size=(loud, nodes)) * 3.0
    return np.concatenate([calm, shifted], axis=0)


class TestOneRefitPath:
    """The solo runner is a one-stream region on the fleet's refit machinery:
    through a whole drift -> refit -> trial -> verdict cycle it is
    bit-identical to a one-stream fleet driven with the same policy."""

    @pytest.mark.parametrize(
        "mode, offset, verdict",
        [
            ("shadow", 0.0, "promoted"),
            ("shadow", 40.0, "rejected"),
            ("immediate", 0.0, None),
            ("canary", 0.0, "promoted"),
        ],
    )
    def test_solo_runner_matches_one_stream_fleet(self, mode, offset, verdict):
        rows = _regime_shift_rows()
        policy = dict(quorum=1, mode=mode, eval_steps=30, cooldown=10_000, background=False)
        aci = {"mode": "static", "window": 60, "min_scores": 10}

        def detectors():
            return [
                CoverageBreachDetector(
                    nominal=0.95, tolerance=0.05, window=20, patience=5, warmup=10
                )
            ]

        solo = StreamingForecaster(
            PersistenceForecaster(horizon=2, sigma=1.0),
            history=3,
            horizon=2,
            aci=aci,
            detectors=detectors(),
            refit_fn=lambda recent: _Offset(offset),
            refit_policy=RefitPolicy(**policy),
        )
        solo_steps = solo.run(rows)

        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0)
        server.deploy("incumbent", PersistenceForecaster(horizon=2, sigma=1.0))
        with server:
            fleet = StreamFleet(
                server, 3, 2,
                aci=aci,
                detector_factory=detectors,
                refit_fn=lambda region, recents: _Offset(offset),
                refit_policy=RefitPolicy(**policy),
            )
            fleet.add_stream("s", region="r")
            fleet_steps = [tick["s"] for tick in fleet.run({"s": iter(rows)})]

        assert len(solo_steps) == len(fleet_steps) == len(rows)
        for solo_step, fleet_step in zip(solo_steps, fleet_steps):
            assert solo_step.step == fleet_step.step
            assert solo_step.served_by == fleet_step.served_by
            if solo_step.prediction is None:
                assert fleet_step.prediction is None
                continue
            np.testing.assert_array_equal(solo_step.prediction.mean, fleet_step.prediction.mean)
            np.testing.assert_array_equal(solo_step.lower, fleet_step.lower)
            np.testing.assert_array_equal(solo_step.upper, fleet_step.upper)

        solo_log, fleet_log = solo.event_log, fleet.event_log
        starts = [event.step for event in solo_log.of_kind("recalibration_started")]
        assert len(starts) == 1
        assert starts == [event.step for event in fleet_log.of_kind("region_refit_started")]
        if verdict is None:
            # Adopted at the step after the refit ran, by both loops.
            (adopted,) = solo_log.of_kind("recalibrated")
            (promoted,) = fleet_log.of_kind("region_candidate_promoted")
            assert adopted.step == promoted.step == starts[0] + 1
            assert isinstance(solo.forecaster, _Offset)
        else:
            (solo_verdict,) = solo_log.of_kind(f"candidate_{verdict}")
            (fleet_verdict,) = fleet_log.of_kind(f"region_candidate_{verdict}")
            assert solo_verdict.step == fleet_verdict.step
            assert solo_verdict.value == fleet_verdict.value        # candidate MAE
            assert solo_verdict.threshold == fleet_verdict.threshold  # incumbent MAE
        served = [step.served_by for step in solo_steps]
        assert ("candidate" in served) == (mode == "canary")


class TestRoutingAndOps:
    def test_key_router_installed_and_streams_keyed_by_region(self, network):
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            assert isinstance(server.router, KeyRouter)
            stream = fleet.add_stream("c0", region="north")
            assert stream.key == "north"
            named = fleet.add_stream("c1")
            assert named.key == "c1"

    def test_existing_key_router_preserved(self, network):
        router = KeyRouter({"north": "regional"})
        model = PersistenceForecaster(horizon=HORIZON, sigma=20.0)
        server = InferenceServer(model.predict, model_version="base", router=router)
        fleet = StreamFleet(server, HISTORY, HORIZON)
        assert fleet.router is router

    def test_snapshot_is_metrics_endpoint_ready(self, network):
        feeds = _feeds(network, 3)
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            for index, name in enumerate(feeds):
                fleet.add_stream(name, region="r", node=index)
            fleet.run({name: iter(feed) for name, feed in feeds.items()}, max_steps=20)
            snap = fleet.snapshot()
        assert snap["tick"] == 20
        assert snap["num_streams"] == 3
        for name in feeds:
            entry = snap["streams"][name]
            assert {"region", "node", "key", "step", "warmed_up", "metrics", "events"} <= set(entry)
            assert {"coverage", "mae", "rmse", "winkler"} <= set(entry["metrics"])
        # the shared server's stats ride along: serving counters, cache
        # statistics and per-deployment ModelPool stats in one dict
        assert "deployments" in snap["server"]
        assert "cache_hits" in snap["server"]
        import json

        json.dumps(snap)  # must be JSON-serializable as-is

    def test_streaming_forecaster_snapshot(self, network):
        feed = StreamingTrafficFeed(network, num_steps=30, seed=0)
        runner = StreamingForecaster(
            PersistenceForecaster(horizon=HORIZON, sigma=20.0),
            history=HISTORY,
            horizon=HORIZON,
        )
        runner.run(feed)
        snap = runner.snapshot()
        assert snap["step"] == 30
        assert {"coverage", "mae"} <= set(snap["metrics"])
        import json

        json.dumps(snap)


class TestFleetStream:
    def test_describe_round_trips_identity(self):
        from repro.streaming import StreamCore

        stream = FleetStream("c9", StreamCore(4, 2), region="west", node=7)
        record = stream.describe()
        assert record == {"name": "c9", "region": "west", "node": 7, "key": "west"}


class TestForecasterFacade:
    def test_forecaster_fleet_builds_and_serves(self, network):
        """Forecaster.fleet() opens a fleet over the fitted model's server."""
        from repro.api import Forecaster
        from repro.data import TrafficData, generate_traffic, train_val_test_split

        values = generate_traffic(network, 400, seed=5)
        data = TrafficData(name="fleet-api", values=values, network=network)
        train, val, _ = train_val_test_split(data)
        forecaster = Forecaster.from_spec(
            {
                "method": "Point",
                "backbone": "AGCRN",
                "training": {
                    "history": HISTORY, "horizon": HORIZON,
                    "hidden_dim": 4, "embed_dim": 2, "epochs": 1, "seed": 0,
                },
            }
        )
        forecaster.fit(train, val)
        fleet = forecaster.fleet()
        try:
            fleet.add_stream("c0")
            feed = StreamingTrafficFeed(network, num_steps=HISTORY + 3, seed=0)
            results = fleet.run({"c0": iter(feed)})
            assert results[-1]["c0"].prediction is not None
        finally:
            fleet.server.stop()


class _KindDetector:
    """A detector with its own event kind, firing once at a fixed step."""

    kind = "sensor_fault"
    signal = "abs_error"

    def __init__(self, at):
        self.at = at

    def update(self, step, value):
        if step != self.at:
            return None
        return DriftEvent(
            kind=self.kind, step=step, value=1.0, threshold=0.0, message="stuck sensor"
        )

    def reset(self):
        pass


class TestCustomDetectorKinds:
    """Every detector event is drift for the refit quorum, whatever its kind:
    a ``detector_factory`` with a custom kind needs no extra fleet option."""

    POLICY = dict(mode="immediate", cooldown=10_000, background=False)

    def test_fleet_reaches_refit_quorum_on_a_custom_kind(self):
        rows = _regime_shift_rows(quiet=20, loud=10)
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0)
        server.deploy("incumbent", PersistenceForecaster(horizon=2, sigma=1.0))
        with server:
            fleet = StreamFleet(
                server, 3, 2,
                detector_factory=lambda: [_KindDetector(at=12)],
                refit_fn=lambda region, recents: _Offset(0.0),
                refit_policy=RefitPolicy(quorum=2, window=3, **self.POLICY),
            )
            fleet.add_stream("a", region="r")
            fleet.add_stream("b", region="r")
            fleet.run({"a": iter(rows), "b": iter(rows)})
        assert fleet["a"].core.event_log.counts == {"sensor_fault": 1}
        (started,) = [e for e in fleet.event_log if e.kind == "region_refit_started"]
        assert started.step == 12

    def test_solo_runner_refits_on_the_same_custom_kind(self):
        solo = StreamingForecaster(
            PersistenceForecaster(horizon=2, sigma=1.0),
            history=3,
            horizon=2,
            detectors=[_KindDetector(at=12)],
            refit_fn=lambda recent: _Offset(0.0),
            refit_policy=RefitPolicy(quorum=1, window=1, **self.POLICY),
        )
        solo.run(_regime_shift_rows(quiet=20, loud=10))
        (started,) = [e for e in solo.event_log if e.kind == "recalibration_started"]
        assert started.step == 12


def test_dropped_fleet_is_freed_by_reference_counting(network):
    """No reference cycle keeps a fleet alive: its SLO source holds it weakly."""
    from repro.obs.slo import SLOEngine, default_slos

    feeds = _feeds(network, 4, steps=HISTORY + 2)
    gc.disable()
    try:
        with _server() as server:
            fleet = StreamFleet(server, HISTORY, HORIZON)
            for name in feeds:
                fleet.add_stream(name)
            engine = fleet.attach_slo(SLOEngine(default_slos()))
            fleet.run({name: iter(feed) for name, feed in feeds.items()})
            dropped = weakref.ref(fleet)
            del fleet
            assert dropped() is None
            # The engine outlives it and samples nothing from it, without raising.
            engine.step(99)
    finally:
        gc.enable()
