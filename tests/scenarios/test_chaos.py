"""Chaos harness: each injected fault asserts the invariant it exposes.

The headline test is the kill-and-restore equivalence acceptance criterion:
a fleet checkpointed *mid-drift* (CUSUM statistic accumulating, no event
fired yet) and restored onto a fresh server must fire the same drift events
at the same steps — and end in bit-identical core state — as a run that was
never interrupted.
"""

import numpy as np
import pytest

from repro.analysis import lockwatch
from repro.fleet import StreamFleet
from repro.graph import grid_network
from repro.scenarios import (
    ChaosSchedule,
    FlakyRefit,
    PredictFault,
    ScenarioSpec,
    kill_and_restore,
    run_fleet_scenario,
    scheduled_kill_and_restore,
    thrash_cache,
)
from repro.serving import InferenceServer
from repro.streaming import (
    DriftEvent,
    ErrorCusumDetector,
    PersistenceForecaster,
    RefitPolicy,
)

HISTORY, HORIZON = 6, 2
STEPS, SHIFT, KILL = 160, 100, 102
#: Flat daily profile so the scripted regime shift is the only drift source.
FLAT = {"peak_amplitude": 0.0, "weekend_attenuation": 1.0}


def _detectors():
    # Same recipe as the fleet concurrency suite: fires within ~3 ticks of a
    # 3x noise shift, stays quiet on the flat profile.
    return [ErrorCusumDetector(slack=1.0, threshold=20.0, warmup=80)]


def _server(**kwargs):
    model = PersistenceForecaster(horizon=HORIZON, sigma=20.0)
    return InferenceServer(
        model.predict, model_version="base", max_batch_size=64, **kwargs
    ).start()


def _shift_feeds(network, num_streams=4):
    return {
        f"c{i}": ScenarioSpec(
            name="shift",
            num_steps=STEPS,
            seed=i,
            config=FLAT,
            primitives=(
                {"kind": "regime_shift", "start": SHIFT, "noise_scale": 3.0},
            ),
        ).build(network)
        for i in range(num_streams)
    }


def _fleet(server, num_streams=4, **kwargs):
    fleet = StreamFleet(
        server,
        HISTORY,
        HORIZON,
        aci={"window": 400, "gamma": 0.01},
        detector_factory=_detectors,
        **kwargs,
    )
    for i in range(num_streams):
        fleet.add_stream(f"c{i}", region="r")
    return fleet


def _first_fires(fleet, kind="error_cusum"):
    return {
        name: next(
            (e.step for e in stream.core.event_log if e.kind == kind), None
        )
        for name, stream in fleet.streams.items()
    }


class TestKillAndRestoreEquivalence:
    """Acceptance criterion: restore mid-drift, fire at the same step."""

    def test_restored_fleet_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        network = grid_network(2, 2)

        # Every lock the servers/fleets construct below is order-tracked;
        # recording (not raising) keeps the chaos run undisturbed and the
        # acyclicity assert at the end fails the test on any cycle.
        with lockwatch.watching(raise_on_cycle=False) as watch:
            uninterrupted_server = _server()
            uninterrupted = _fleet(uninterrupted_server)
            run_fleet_scenario(uninterrupted, _shift_feeds(network))
            uninterrupted_server.stop()

            at_restore = {}

            def killer(fleet, tick):
                restored = kill_and_restore(
                    fleet, tmp_path / "ckpt", _server(), detector_factory=_detectors
                )
                at_restore["statistics"] = [
                    stream.core.detectors[0].statistic
                    for stream in restored.streams.values()
                ]
                at_restore["fired"] = [
                    event
                    for stream in restored.streams.values()
                    for event in stream.core.event_log
                    if event.kind == "error_cusum"
                ]
                return restored

            killed_server = _server()
            killed = _fleet(killed_server)
            survivor, _ = run_fleet_scenario(
                killed,
                _shift_feeds(network),
                chaos=ChaosSchedule().at(KILL, killer),
            )
            survivor.server.stop()
        watch.assert_acyclic()

        # The kill landed mid-drift: the shift started at SHIFT, statistics
        # were accumulating at the restore, but no event had fired yet.
        assert survivor is not killed
        assert max(at_restore["statistics"]) > 0.0
        assert at_restore["fired"] == []

        # Every stream fires after the kill, at the same step in both runs.
        fires = _first_fires(uninterrupted)
        assert all(step is not None and step > KILL for step in fires.values())
        assert _first_fires(survivor) == fires

        # Full per-stream state equivalence: event logs, meta, every array.
        for name, reference in uninterrupted.streams.items():
            restored = survivor.streams[name]
            assert (
                restored.core.event_log.to_records()
                == reference.core.event_log.to_records()
            )
            expected = reference.core.get_state()
            actual = restored.core.get_state()
            assert actual["meta"] == expected["meta"]
            assert set(actual["arrays"]) == set(expected["arrays"])
            for key, array in expected["arrays"].items():
                np.testing.assert_array_equal(
                    actual["arrays"][key], array, err_msg=f"{name}:{key}"
                )


    def test_readme_schedule_recipe_matches_a_direct_kill_and_restore(self, tmp_path):
        """README's ``scheduled_kill_and_restore`` action restores the fleet
        exactly as a direct :func:`kill_and_restore` at the same tick."""
        network = grid_network(2, 2)

        def direct(fleet, tick):
            return kill_and_restore(
                fleet, tmp_path / "direct", _server(), detector_factory=_detectors
            )

        scheduled = scheduled_kill_and_restore(
            tmp_path / "scheduled", _server, detector_factory=_detectors
        )
        runs = {}
        for label, action in (("direct", direct), ("scheduled", scheduled)):
            killed = _fleet(_server())
            survivor, results = run_fleet_scenario(
                killed, _shift_feeds(network), chaos=ChaosSchedule().at(KILL, action)
            )
            survivor.server.stop()
            assert survivor is not killed
            assert not killed.server.stats["running"]
            runs[label] = survivor, results

        reference_fleet, reference_results = runs["direct"]
        fleet, results = runs["scheduled"]
        assert len(results) == len(reference_results) == STEPS
        for tick, reference in zip(results, reference_results):
            assert tick.tick == reference.tick
            assert tick.events == reference.events
            for name, expected in reference:
                actual = tick[name]
                assert actual.events == expected.events
                assert (actual.prediction is None) == (expected.prediction is None)
                if expected.prediction is not None:
                    for attr in ("mean", "std"):
                        np.testing.assert_array_equal(
                            getattr(actual.prediction, attr),
                            getattr(expected.prediction, attr),
                        )
                    np.testing.assert_array_equal(actual.lower, expected.lower)
                    np.testing.assert_array_equal(actual.upper, expected.upper)
        fires = _first_fires(reference_fleet)
        assert all(step is not None and step > KILL for step in fires.values())
        assert _first_fires(fleet) == fires


class _FireAt:
    """Deterministic detector: one coverage-breach event at a fixed step."""

    signal = "coverage"

    def __init__(self, at):
        self.at = int(at)

    def update(self, step, value):
        if step == self.at:
            return DriftEvent(
                kind="coverage_breach", step=step, value=0.0, threshold=0.0
            )
        return None


def _plain_feeds(network, steps, num_streams=4):
    return {
        f"c{i}": ScenarioSpec(
            name="plain", num_steps=steps, seed=i, config=FLAT
        ).build(network)
        for i in range(num_streams)
    }


class TestFlakyRefit:
    def test_dead_refit_surfaces_as_event_and_fleet_keeps_serving(self):
        network = grid_network(2, 2)
        steps = 30
        flaky = FlakyRefit(
            lambda region, recents: PersistenceForecaster(
                horizon=HORIZON, sigma=10.0
            ),
            fail_on=1,
        )
        server = _server()
        try:
            fleet = StreamFleet(
                server,
                HISTORY,
                HORIZON,
                detector_factory=lambda: [_FireAt(at=15)],
                refit_fn=flaky,
                refit_policy=RefitPolicy(
                    quorum=2, window=20, cooldown=100, background=False
                ),
            )
            for i in range(4):
                fleet.add_stream(f"c{i}", region="r")
            _, results = run_fleet_scenario(fleet, _plain_feeds(network, steps))
        finally:
            server.stop()

        assert flaky.calls == 1
        kinds = [event.kind for event in fleet.event_log]
        assert kinds.count("region_refit_failed") == 1
        assert "region_candidate_staged" not in kinds
        # The incumbent kept serving in lock-step through the failure.
        assert len(results) == steps
        assert all(s.core.step == steps for s in fleet.streams.values())
        assert results[-1]["c0"].prediction is not None


class TestPredictFault:
    def test_raising_model_pass_fails_the_tick_not_the_fleet(self):
        network = grid_network(2, 2)
        steps = 40
        fault = PredictFault(error=RuntimeError("chaos: model pass died"))
        server = _server()
        try:
            server.fault_injector = fault
            fleet = _fleet(server)
            _, results = run_fleet_scenario(fleet, _plain_feeds(network, steps))
        finally:
            server.stop()

        assert fault.fired == 1
        failures = [
            event for event in fleet.event_log
            if event.kind == "stream_predict_failed"
        ]
        assert failures
        # Zero dropped futures: every tick resolved, every stream in
        # lock-step, and serving recovered after the failed pass.
        assert len(results) == steps
        assert all(s.core.step == steps for s in fleet.streams.values())
        failed_at = max(event.step for event in failures)
        recovered = [
            r for r in results
            if r.tick > failed_at and r["c0"].prediction is not None
        ]
        assert recovered

    def test_fault_scoped_to_one_deployment_leaves_others_alone(self):
        fault = PredictFault(
            error=RuntimeError("boom"), deployment="elsewhere", count=None
        )
        server = _server()
        try:
            server.fault_injector = fault
            future = server.submit(np.ones((HISTORY, 4)))
            result = future.result(timeout=10.0)
        finally:
            server.stop()
        assert fault.fired == 0
        np.testing.assert_allclose(result.mean[0], np.ones((HORIZON, 4)))

    def test_exactly_one_of_error_or_hang(self):
        with pytest.raises(ValueError, match="exactly one"):
            PredictFault()
        with pytest.raises(ValueError, match="exactly one"):
            PredictFault(error=RuntimeError("x"), hang=True)


class TestDegradedCandidateRollback:
    def test_degraded_candidate_is_rejected_and_undeployed(self):
        network = grid_network(2, 2)
        steps = 120

        class Degraded:
            """Persistence with a large constant bias: trials must reject it."""

            def __init__(self):
                self._model = PersistenceForecaster(horizon=HORIZON, sigma=20.0)

            def predict(self, windows):
                result = self._model.predict(windows)
                result.mean = result.mean + 200.0
                return result

        server = _server()
        try:
            fleet = StreamFleet(
                server,
                HISTORY,
                HORIZON,
                detector_factory=lambda: [_FireAt(at=15)],
                refit_fn=lambda region, recents: Degraded(),
                refit_policy=RefitPolicy(
                    quorum=2,
                    window=20,
                    cooldown=1000,
                    background=False,
                    eval_steps=40,
                ),
            )
            for i in range(4):
                fleet.add_stream(f"c{i}", region="r")
            _, results = run_fleet_scenario(fleet, _plain_feeds(network, steps))
            kinds = [event.kind for event in fleet.event_log]
            assert kinds.count("region_candidate_staged") == 1
            assert kinds.count("region_candidate_rejected") == 1
            assert "region_candidate_promoted" not in kinds
            # Rolled back: the candidate deployment is gone and the region
            # still routes to the incumbent.
            assert not any("cand" in name for name in server.pool.names())
            assert fleet.coordinator.trials == {}
            assert server.stats["route_fallbacks"] == 0
        finally:
            server.stop()
        assert len(results) == steps
        assert all(s.core.step == steps for s in fleet.streams.values())


class TestCacheThrash:
    def test_thrash_forces_eviction_without_corrupting_results(self):
        server = _server(cache_size=8)
        try:
            # Warm the cache, thrash it with 64 unique windows, then check
            # both the churn and that every thrashed result is correct.
            warm = np.full((HISTORY, 4), 7.0)
            server.submit(warm).result(timeout=10.0)
            results = thrash_cache(
                server, num_windows=64, history=HISTORY, num_nodes=4, seed=3
            )
            assert len(results) == 64
            rng = np.random.default_rng(3)
            windows = rng.uniform(0.0, 500.0, size=(64, HISTORY, 4))
            for window, result in zip(windows, results):
                np.testing.assert_allclose(
                    result.mean[0], np.repeat(window[-1:], HORIZON, axis=0)
                )
            stats = server.stats
            assert stats["cache_evictions"] > 0
            assert stats["cache_size"] <= 8
            # The warmed entry was evicted but recomputes correctly.
            again = server.submit(warm).result(timeout=10.0)
            np.testing.assert_allclose(again.mean[0], np.full((HORIZON, 4), 7.0))
        finally:
            server.stop()


class TestColdStartCorridor:
    def test_stream_joining_a_warm_fleet_warms_up_in_place(self):
        network = grid_network(2, 2)
        steps, join = 80, 50
        feeds = _plain_feeds(network, steps, num_streams=3)
        feeds["late"] = ScenarioSpec(
            name="late", num_steps=steps - join, seed=9, config=FLAT
        ).build(network)

        server = _server()
        try:
            fleet = _fleet(server, num_streams=3)
            final, results = run_fleet_scenario(
                fleet,
                feeds,
                join_at={"late": join},
                stream_args={"late": {"region": "r"}},
            )
        finally:
            server.stop()

        assert len(results) == steps
        # Not registered (let alone observed) before its join tick.
        assert all("late" not in result.results for result in results[:join])
        assert "late" in results[join].results
        late = final.streams["late"]
        assert late.core.step == steps - join
        # The veterans stayed warm throughout and the newcomer warmed up.
        assert results[-1]["c0"].prediction is not None
        assert results[-1]["late"].prediction is not None
