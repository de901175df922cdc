"""Fleet coordination under drift: one refit per region, zero drops.

The headline ISSUE acceptance test: a 64-stream fleet where one region
(32 streams) takes a synthetic ``regime_shift`` (observation noise 3x
mid-stream) must — with a fixed seed — trigger **exactly one** coordinated
refit/promotion for that region, serve every request (zero drops, zero
route fallbacks), and leave the control region untouched.
"""

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.data import StreamingTrafficFeed
from repro.data.synthetic import SyntheticTrafficConfig
from repro.graph import grid_network
from repro.serving import InferenceServer
from repro.streaming import ErrorCusumDetector, RefitCoordinator, RefitPolicy
from repro.fleet import StreamFleet

HISTORY, HORIZON = 6, 2
STEPS = 200
SHIFT_AT = 100
NUM_STREAMS = 64
SHIFTED = 32  # streams 0..31 form region "north", the rest "south"

#: Flat daily profile: the regime shift is the only nonstationarity, so the
#: error-CUSUM detectors localize drift to the shifted region.
FLAT = SyntheticTrafficConfig(peak_amplitude=0.0, weekend_attenuation=1.0)


class FixedSigmaPersistence:
    """Persistence forecaster reporting a fixed predictive scale."""

    def __init__(self, sigma: float) -> None:
        self.sigma = float(sigma)

    def predict(self, windows: np.ndarray) -> PredictionResult:
        last = windows[:, -1:, :]
        mean = np.repeat(last, HORIZON, axis=1)
        variance = np.full_like(mean, self.sigma ** 2)
        return PredictionResult(
            mean=mean, aleatoric_var=variance, epistemic_var=np.zeros_like(mean)
        )


def _feeds(network):
    feeds = {}
    for i in range(NUM_STREAMS):
        if i < SHIFTED:
            feeds[f"c{i}"] = StreamingTrafficFeed.scenario(
                network, "regime_shift", num_steps=STEPS, seed=i,
                start=SHIFT_AT, noise_scale=3.0, config=FLAT,
            )
        else:
            feeds[f"c{i}"] = StreamingTrafficFeed(
                network, num_steps=STEPS, seed=i, config=FLAT
            )
    return feeds


@pytest.fixture(scope="module")
def fleet_run():
    network = grid_network(2, 2)
    feeds = _feeds(network)
    refit_calls = []

    def refit_fn(region, recents):
        refit_calls.append((region, sorted(recents)))
        return FixedSigmaPersistence(sigma=60.0)

    def detector_factory():
        # Threshold picked so the 3x noise shift fires every shifted stream
        # within ~3 ticks while the 32 control streams stay far below quorum
        # (sweeping 12/20/30 gives 10/4/2 spurious firings over the run).
        return [ErrorCusumDetector(slack=1.0, threshold=20.0, warmup=80)]

    model = FixedSigmaPersistence(sigma=20.0)
    server = InferenceServer(
        model.predict, model_version="base", max_batch_size=64, max_wait_ms=2.0
    )
    with server:
        fleet = StreamFleet(
            server,
            HISTORY,
            HORIZON,
            aci={"window": 400, "gamma": 0.01},
            detector_factory=detector_factory,
            refit_fn=refit_fn,
            refit_policy=RefitPolicy(
                quorum=8, window=40, cooldown=200, max_concurrent=1,
                eval_steps=60, mae_tolerance=0.5, coverage_tolerance=0.5,
            ),
        )
        for i in range(NUM_STREAMS):
            fleet.add_stream(f"c{i}", region="north" if i < SHIFTED else "south")
        results = fleet.run({name: iter(feed) for name, feed in feeds.items()})
        fleet.join_refits()
        stats = server.stats
    return fleet, results, refit_calls, stats


class TestCoordinatedRefit:
    def test_exactly_one_coordinated_refit_and_promotion(self, fleet_run):
        fleet, _, refit_calls, _ = fleet_run
        kinds = [event.kind for event in fleet.event_log]
        assert kinds.count("region_refit_started") == 1
        assert kinds.count("region_candidate_staged") == 1
        assert kinds.count("region_candidate_promoted") == 1
        assert "region_candidate_rejected" not in kinds
        assert "region_refit_failed" not in kinds
        # one refit call, for the shifted region, pooling all 32 streams
        assert len(refit_calls) == 1
        region, streams = refit_calls[0]
        assert region == "north"
        assert len(streams) == SHIFTED

    def test_refit_triggered_after_the_shift(self, fleet_run):
        fleet, _, _, _ = fleet_run
        (started,) = [e for e in fleet_log(fleet, "region_refit_started")]
        assert SHIFT_AT <= started.step <= SHIFT_AT + 40

    def test_promotion_re_points_only_the_drifted_region(self, fleet_run):
        fleet, _, _, _ = fleet_run
        assert fleet._region_deployment == {"north": "fleet-north-cand1"}
        assert fleet.router.routes.get("north") == "fleet-north-cand1"
        assert "south" not in fleet.router.routes
        assert "fleet-north-cand1" in fleet.server.pool

    def test_zero_dropped_requests(self, fleet_run):
        fleet, results, _, stats = fleet_run
        warm_ticks = STEPS - HISTORY + 1
        # every warm stream-tick produced a served prediction...
        expected_primary = NUM_STREAMS * warm_ticks
        assert stats["requests_served"] >= expected_primary
        assert stats["route_fallbacks"] == 0
        # ...and every tick's results carry resolved forecasts for all streams
        for tick in results[HISTORY:]:
            assert len(tick) == NUM_STREAMS
            for _, step in tick:
                assert step.prediction is not None

    def test_refit_storm_budget_respected(self, fleet_run):
        """One regime shift over 32 streams must not launch 32 refits."""
        fleet, _, refit_calls, _ = fleet_run
        assert len(refit_calls) == 1
        assert fleet.coordinator.stats()["triggers"] == 1

    def test_control_region_never_drifts_to_quorum(self, fleet_run):
        fleet, _, _, _ = fleet_run
        south_drifted = [
            name
            for name, stream in fleet.streams.items()
            if stream.region == "south"
            and any(e.kind == "error_cusum" for e in stream.core.event_log)
        ]
        assert len(south_drifted) < fleet.coordinator.policy.quorum


def fleet_log(fleet, kind):
    return [event for event in fleet.event_log if event.kind == kind]


class _FireAt:
    """Deterministic detector: one coverage-breach event at a fixed step."""

    signal = "coverage"

    def __init__(self, at: int) -> None:
        self.at = int(at)

    def update(self, step, value):
        from repro.streaming import DriftEvent

        if step == self.at:
            return DriftEvent(kind="coverage_breach", step=step, value=0.0, threshold=0.0)
        return None


class TestBrokenCandidateTrial:
    def test_failing_candidate_aborts_trial_without_desyncing_the_fleet(self):
        """A refit whose predict raises must be rejected, not kill the tick."""
        network = grid_network(2, 2)

        class Broken:
            def predict(self, windows):
                raise RuntimeError("corrupt checkpoint")

        model = FixedSigmaPersistence(sigma=20.0)
        server = InferenceServer(model.predict, model_version="base", max_batch_size=64)
        steps = 30
        with server:
            fleet = StreamFleet(
                server, HISTORY, HORIZON,
                detector_factory=lambda: [_FireAt(at=15)],
                refit_fn=lambda region, recents: Broken(),
                refit_policy=RefitPolicy(
                    quorum=2, window=20, cooldown=100, background=False
                ),
            )
            feeds = {
                f"c{i}": StreamingTrafficFeed(network, num_steps=steps, seed=i, config=FLAT)
                for i in range(4)
            }
            for name in feeds:
                fleet.add_stream(name, region="r")
            results = fleet.run({name: iter(feed) for name, feed in feeds.items()})
            # every tick completed and every stream stayed in lock-step
            assert len(results) == steps
            assert all(s.core.step == steps for s in fleet.streams.values())
            # the broken candidate failed its trial and was undeployed
            kinds = [event.kind for event in fleet.event_log]
            assert kinds.count("region_candidate_staged") == 1
            assert kinds.count("region_candidate_failed") == 1
            assert "region_candidate_promoted" not in kinds
            assert not any("cand" in name for name in server.pool.names())
            assert fleet.coordinator.trials == {}
            # the fleet kept serving after the failure
            assert results[-1]["c0"].prediction is not None
            assert server.stats["route_fallbacks"] == 0


class TestFleetCanary:
    def test_canary_serves_its_share_of_the_drifting_region_only(self):
        """mode="canary": during region a's trial the candidate serves 25% of
        a's stream-steps, and region b never sees it."""
        network = grid_network(2, 2)
        steps = 160
        model = FixedSigmaPersistence(sigma=20.0)
        server = InferenceServer(model.predict, model_version="base", max_batch_size=64)
        with server:
            fleet = StreamFleet(
                server, HISTORY, HORIZON,
                refit_fn=lambda region, recents: FixedSigmaPersistence(sigma=20.0),
                refit_policy=RefitPolicy(
                    quorum=2, window=20, cooldown=1000, background=False,
                    mode="canary", canary_fraction=0.25, eval_steps=100_000,
                ),
            )
            for i in range(4):
                fleet.add_stream(f"a{i}", region="a", detectors=[_FireAt(at=15)])
                fleet.add_stream(f"b{i}", region="b", detectors=[])
            feeds = {
                name: StreamingTrafficFeed(network, num_steps=steps, seed=i, config=FLAT)
                for i, name in enumerate(fleet.streams)
            }
            results = fleet.run({name: iter(feed) for name, feed in feeds.items()})
            assert "a" in fleet.coordinator.trials and "b" not in fleet.coordinator.trials

        (staged,) = fleet_log(fleet, "region_candidate_staged")
        during = [tick for tick in results if tick.tick >= staged.step]
        assert len(during) > 100
        a_served = [tick[f"a{i}"].served_by for tick in during for i in range(4)]
        b_served = [tick[f"b{i}"].served_by for tick in during for i in range(4)]
        assert abs(a_served.count("candidate") / len(a_served) - 0.25) <= 0.05
        assert set(b_served) == {"incumbent"}
        assert all(tick[name].served_by == "incumbent"
                   for tick in results if tick.tick < staged.step for name in tick.results)
        # A canary-served step still emits a calibrated forecast.
        served = [tick[f"a{i}"] for tick in during for i in range(4)
                  if tick[f"a{i}"].served_by == "candidate"]
        assert all(step.prediction is not None and np.all(step.lower <= step.upper)
                   for step in served)


class TestCoordinatorUnit:
    def test_quorum_and_window(self):
        coordinator = RefitCoordinator(
            lambda region, recents: FixedSigmaPersistence(1.0),
            policy=RefitPolicy(quorum=3, window=10, background=False),
        )
        coordinator.note_drift("r", "a", 0)
        coordinator.note_drift("r", "b", 1)
        assert coordinator.maybe_trigger(2, lambda region: {}) == []
        coordinator.note_drift("r", "c", 2)
        assert coordinator.maybe_trigger(2, lambda region: {}) == ["r"]
        assert [r for r, _, _ in coordinator.take_finished()] == ["r"]

    def test_stale_drift_falls_out_of_the_window(self):
        coordinator = RefitCoordinator(
            lambda region, recents: None,
            policy=RefitPolicy(quorum=2, window=5, background=False),
        )
        coordinator.note_drift("r", "a", 0)
        coordinator.note_drift("r", "b", 10)
        assert coordinator.maybe_trigger(10, lambda region: {}) == []

    def test_budget_caps_concurrent_regions(self):
        coordinator = RefitCoordinator(
            lambda region, recents: FixedSigmaPersistence(1.0),
            policy=RefitPolicy(
                quorum=1, window=10, max_concurrent=1, mode="shadow", background=False
            ),
        )
        coordinator.note_drift("r1", "a", 0)
        coordinator.note_drift("r2", "b", 0)
        triggered = coordinator.maybe_trigger(1, lambda region: {})
        assert len(triggered) == 1

    def test_cooldown_blocks_retrigger(self):
        coordinator = RefitCoordinator(
            lambda region, recents: FixedSigmaPersistence(1.0),
            policy=RefitPolicy(quorum=1, window=100, cooldown=50, background=False),
        )
        coordinator.note_drift("r", "a", 0)
        assert coordinator.maybe_trigger(0, lambda region: {}) == ["r"]
        coordinator.take_finished()
        coordinator.note_drift("r", "a", 10)
        assert coordinator.maybe_trigger(10, lambda region: {}) == []
        coordinator.note_drift("r", "a", 60)
        assert coordinator.maybe_trigger(60, lambda region: {}) == ["r"]

    def test_refit_error_is_surfaced_not_raised(self):
        def failing(region, recents):
            raise RuntimeError("boom")

        coordinator = RefitCoordinator(
            failing, policy=RefitPolicy(quorum=1, window=10, background=False)
        )
        coordinator.note_drift("r", "a", 0)
        coordinator.maybe_trigger(0, lambda region: {})
        ((region, model, error),) = coordinator.take_finished()
        assert region == "r" and model is None
        assert isinstance(error, RuntimeError)

    def test_state_round_trip(self):
        coordinator = RefitCoordinator(
            lambda region, recents: None,
            policy=RefitPolicy(quorum=1, window=10, background=False),
        )
        coordinator.note_drift("r", "a", 3)
        coordinator.maybe_trigger(3, lambda region: {})
        state = coordinator.get_state()
        restored = RefitCoordinator(lambda region, recents: None).set_state(state)
        assert restored.get_state() == state
