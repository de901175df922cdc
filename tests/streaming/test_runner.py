"""The online loop: regime-shift adaptation, hot-swap, persistence, facade.

The headline test here is the ISSUE acceptance criterion: on a synthetic
regime-shift stream (observation noise 2.5x mid-stream), the *static*
split-conformal calibration degrades below 85% rolling coverage, while the
adaptive (ACI) calibration returns to 95% +/- 2% within the adaptation
window — asserted with a fixed seed.
"""

import threading

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.data import StreamingTrafficFeed
from repro.graph import grid_network
from repro.serving import InferenceServer
from repro.streaming import (
    AdaptiveConformalCalibrator,
    CoverageBreachDetector,
    PersistenceForecaster,
    RefitPolicy,
    StreamingForecaster,
    StreamingMonitor,
)

HISTORY, HORIZON = 8, 4


class OracleForecaster:
    """Predicts the feed's clean signal exactly, with a fixed reported scale.

    The runner calls ``predict`` exactly once per observed step once warm,
    so a call counter recovers the stream position; the forecast for call
    ``k`` (made after observing step ``t = history - 1 + k``) is the clean
    flow at ``t+1 .. t+horizon``.  All remaining interval error therefore
    comes from the observation noise — precisely the quantity the conformal
    layer must track through the regime shift.
    """

    def __init__(self, feed, horizon: int, sigma: float) -> None:
        self.feed = feed
        self.horizon = horizon
        self.sigma = float(sigma)
        self.calls = 0

    def predict(self, windows: np.ndarray) -> PredictionResult:
        t = HISTORY - 1 + self.calls
        self.calls += 1
        last = self.feed.num_steps - 1
        mean = np.stack(
            [self.feed.clean[min(t + h, last)] for h in range(1, self.horizon + 1)]
        )[None]
        variance = np.full_like(mean, self.sigma ** 2)
        return PredictionResult(
            mean=mean, aleatoric_var=variance, epistemic_var=np.zeros_like(mean)
        )


@pytest.fixture(scope="module")
def regime_shift_feed():
    network = grid_network(3, 3)
    return StreamingTrafficFeed.scenario(network, "regime_shift", num_steps=1200, seed=7)


def _run_mode(feed, mode: str) -> StreamingForecaster:
    sigma_ref = float(feed.noise_sigma[:600].mean())
    runner = StreamingForecaster(
        OracleForecaster(feed, HORIZON, sigma_ref),
        history=HISTORY,
        horizon=HORIZON,
        aci={"mode": mode, "window": 1800, "gamma": 0.01},
        monitor=StreamingMonitor(window=300),
        detectors=[],
    )
    runner.run(feed)
    return runner


class TestRegimeShiftAcceptance:
    """ISSUE 3 acceptance: static conformal loses coverage, ACI recovers it."""

    def test_static_conformal_degrades_below_85(self, regime_shift_feed):
        runner = _run_mode(regime_shift_feed, "static")
        assert runner.monitor.coverage < 85.0

    def test_aci_recovers_nominal_coverage(self, regime_shift_feed):
        runner = _run_mode(regime_shift_feed, "aci")
        assert runner.monitor.coverage == pytest.approx(95.0, abs=2.0)

    def test_aci_tracks_the_noise_scale(self, regime_shift_feed):
        """Post-shift ACI intervals are ~2.5x wider than the static ones."""
        static = _run_mode(regime_shift_feed, "static")
        adaptive = _run_mode(regime_shift_feed, "aci")
        ratio = (
            adaptive.monitor.snapshot()["mean_width"]
            / static.monitor.snapshot()["mean_width"]
        )
        assert 1.8 < ratio < 3.5


class TestObserveLoop:
    def _runner(self, **kwargs):
        defaults = dict(history=3, horizon=2, detectors=[], aci={"mode": "rolling"})
        defaults.update(kwargs)
        return StreamingForecaster(PersistenceForecaster(horizon=2, sigma=5.0), **defaults)

    def test_no_prediction_during_warmup(self):
        runner = self._runner()
        results = [runner.observe(np.full(4, 10.0)) for _ in range(2)]
        assert all(result.prediction is None for result in results)
        third = runner.observe(np.full(4, 10.0))
        assert third.prediction is not None
        assert third.prediction.mean.shape == (1, 2, 4)
        assert third.lower.shape == (2, 4)
        assert np.all(third.lower <= third.upper)

    def test_geometry_inferred_from_config(self):
        class WithConfig:
            class config:
                history, horizon = 5, 3

            def predict(self, windows):
                mean = np.zeros((windows.shape[0], 3, windows.shape[2]))
                return PredictionResult(
                    mean=mean,
                    aleatoric_var=np.ones_like(mean),
                    epistemic_var=np.zeros_like(mean),
                )

        runner = StreamingForecaster(WithConfig(), detectors=[])
        assert (runner.history, runner.horizon) == (5, 3)

    def test_geometry_required_when_unknown(self):
        with pytest.raises(ValueError, match="history"):
            StreamingForecaster(lambda windows: None)

    def test_refit_policy_needs_a_quorum_of_one(self):
        with pytest.raises(ValueError, match="quorum must be 1"):
            self._runner(refit_policy=RefitPolicy(quorum=2))

    def test_nan_observations_are_carried_forward(self):
        runner = self._runner()
        runner.observe(np.array([1.0, 2.0, 3.0, 4.0]))
        result = runner.observe(np.array([10.0, np.nan, 30.0, np.nan]))
        np.testing.assert_array_equal(result.observed, [10.0, 2.0, 30.0, 4.0])
        np.testing.assert_array_equal(result.mask, [True, False, True, False])

    def test_fully_masked_stream_still_runs(self):
        runner = self._runner()
        for _ in range(6):
            result = runner.observe(np.full(4, np.nan))
        assert result.prediction is not None  # imputed history still forecasts

    def test_pending_forecasts_feed_the_monitor(self):
        runner = self._runner(monitor=StreamingMonitor(window=50))
        for step in range(20):
            runner.observe(np.full(4, 100.0))
        snapshot = runner.monitor.snapshot()
        assert snapshot["scored_steps"] > 0
        # A constant stream is trivially covered by persistence intervals.
        assert snapshot["coverage"] == pytest.approx(100.0)
        assert snapshot["mae"] == pytest.approx(0.0, abs=1e-12)

    def test_run_respects_max_steps(self):
        runner = self._runner()
        results = runner.run((np.full(4, 1.0) for _ in range(100)), max_steps=7)
        assert len(results) == 7
        assert runner.step == 7


class TestDriftTriggeredSwap:
    def _drifting_stream(self, steps_quiet=60, steps_loud=80, nodes=4):
        rng = np.random.default_rng(42)
        quiet = 50.0 + rng.normal(size=(steps_quiet, nodes))
        loud = 50.0 + rng.normal(size=(steps_loud, nodes)) * 30.0
        return np.concatenate([quiet, loud], axis=0)

    def test_drift_fires_refit_and_hot_swap_without_dropping_requests(self):
        model = PersistenceForecaster(horizon=2, sigma=1.0)
        server = InferenceServer(
            model.predict, model_version="stream-v0", max_batch_size=4,
            max_wait_ms=5.0, cache_size=0,
        )
        refitted = PersistenceForecaster(horizon=2, sigma=50.0)
        refit_calls = []

        def refit_fn(recent):
            refit_calls.append(recent)
            return refitted

        runner = StreamingForecaster(
            model,
            history=3,
            horizon=2,
            server=server,
            refit_fn=refit_fn,
            refit_policy=RefitPolicy(quorum=1, mode="immediate", cooldown=10_000),
            detectors=[
                CoverageBreachDetector(
                    nominal=0.95, tolerance=0.05, window=20, patience=5, warmup=10
                )
            ],
            aci={"mode": "static", "window": 60, "min_scores": 10},
        )

        stream = self._drifting_stream()
        futures = []
        stop = threading.Event()

        def client():
            rng = np.random.default_rng(1)
            while not stop.is_set():
                window = rng.uniform(0.0, 100.0, size=(3, 4))
                futures.append(server.submit(window))

        with server:
            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            for row in stream:
                runner.observe(row)
            runner.join_refit()
            runner.observe(stream[-1])  # a finished refit is adopted at the next step
            stop.set()
            thread.join(timeout=10.0)
            results = [future.result(timeout=30.0) for future in futures]

        # Zero dropped requests: every submitted future resolved.
        assert len(results) == len(futures) > 0
        assert all(isinstance(result, PredictionResult) for result in results)
        assert server.stats["requests_served"] == len(futures)
        # The drift actually triggered a refit, published by deploy + promote.
        assert len(refit_calls) == 1
        assert refit_calls[0].shape[1] == 4
        assert server.stats["promotions"] >= 1
        assert server.model_version == "stream-recal1"
        kinds = {event.kind for event in runner.event_log}
        assert {"coverage_breach", "recalibration_started", "model_swapped",
                "recalibrated"} <= kinds
        # The runner's own loop now forecasts with the refitted model, and
        # save() would persist it (not the pre-drift one).
        assert runner._predict == refitted.predict
        assert runner.forecaster is refitted

    def test_overlapping_refits_are_suppressed(self):
        """A trigger while a refit is in flight is skipped, not stacked."""
        release = threading.Event()
        started = []

        def slow_refit(recent):
            started.append(1)
            release.wait(timeout=30.0)
            return PersistenceForecaster(horizon=2, sigma=9.0)

        class AlwaysFire:
            kind = "coverage_breach"
            signal = "coverage"

            def update(self, step, value):
                from repro.streaming import DriftEvent

                if value is None:
                    return None
                return DriftEvent(kind=self.kind, step=step, value=0.0, threshold=1.0)

        runner = StreamingForecaster(
            PersistenceForecaster(horizon=2, sigma=1.0),
            history=2, horizon=2,
            refit_fn=slow_refit,
            detectors=[AlwaysFire()],
            refit_policy=RefitPolicy(quorum=1, mode="immediate", cooldown=1),
        )
        for _ in range(30):
            runner.observe(np.full(3, 1.0))
        assert len(started) == 1  # every later trigger saw the in-flight refit
        release.set()
        runner.join_refit()
        runner.observe(np.full(3, 1.0))  # adopts the finished refit
        assert runner.event_log.of_kind("recalibration_started")
        assert len(runner.event_log.of_kind("model_swapped")) == 0  # no server
        assert runner.forecaster.sigma == 9.0

    def test_cooldown_rate_limits_triggers(self):
        events_fired = []

        class AlwaysFire:
            kind = "coverage_breach"
            signal = "coverage"

            def update(self, step, value):
                from repro.streaming import DriftEvent

                if value is None:
                    return None
                events_fired.append(step)
                return DriftEvent(kind=self.kind, step=step, value=0.0, threshold=1.0)

        runner = StreamingForecaster(
            PersistenceForecaster(horizon=2, sigma=1.0),
            history=2, horizon=2,
            detectors=[AlwaysFire()],
            refit_policy=RefitPolicy(
                quorum=1, mode="immediate", cooldown=30, background=False
            ),
        )
        for _ in range(70):
            runner.observe(np.full(3, 1.0))
        starts = runner.event_log.of_kind("recalibration_started")
        assert 1 <= len(starts) <= 3
        steps = [event.step for event in starts]
        assert all(b - a >= 30 for a, b in zip(steps, steps[1:]))

    def test_failed_refit_lands_in_event_log_not_the_loop(self):
        def broken_refit(recent):
            raise RuntimeError("no data warehouse today")

        runner = StreamingForecaster(
            PersistenceForecaster(horizon=2, sigma=1.0),
            history=2, horizon=2,
            refit_fn=broken_refit,
            refit_policy=RefitPolicy(
                quorum=1, mode="immediate", cooldown=10_000, background=False
            ),
            detectors=[
                CoverageBreachDetector(
                    nominal=0.95, tolerance=0.05, window=10, patience=3, warmup=5
                )
            ],
            aci={"mode": "static", "window": 40, "min_scores": 10},
        )
        stream = self._drifting_stream(steps_quiet=40, steps_loud=40, nodes=3)
        for row in stream:
            runner.observe(row)  # must not raise
        failures = runner.event_log.of_kind("recalibration_failed")
        assert len(failures) >= 1
        assert "no data warehouse" in failures[0].message


class TestStreamingPersistence:
    def test_aci_state_survives_save_load_bit_identically(self, tmp_path):
        model = PersistenceForecaster(horizon=2, sigma=5.0)
        runner = StreamingForecaster(
            model, history=3, horizon=2, detectors=[], aci={"mode": "aci", "window": 64}
        )
        rng = np.random.default_rng(9)
        for _ in range(40):
            runner.observe(50.0 + rng.normal(size=4) * 3.0)
        saved = runner.save(tmp_path / "stream")

        restored = StreamingForecaster.load(
            saved, forecaster=model, history=3, horizon=2, detectors=[]
        )
        original = runner.calibrator.get_state()
        reloaded = restored.calibrator.get_state()
        assert original["meta"] == reloaded["meta"]
        for key in original["arrays"]:
            np.testing.assert_array_equal(
                original["arrays"][key], reloaded["arrays"][key], err_msg=key
            )
        # Same future intervals from the restored state.
        probe = PredictionResult(
            mean=np.zeros((1, 2, 4)),
            aleatoric_var=np.ones((1, 2, 4)),
            epistemic_var=np.zeros((1, 2, 4)),
        )
        np.testing.assert_array_equal(
            runner.calibrator.calibrate(probe).std,
            restored.calibrator.calibrate(probe).std,
        )

    def test_load_without_model_checkpoint_requires_forecaster(self, tmp_path):
        runner = StreamingForecaster(
            PersistenceForecaster(horizon=2, sigma=1.0),
            history=2, horizon=2, detectors=[],
        )
        saved = runner.save(tmp_path / "stream")
        with pytest.raises(FileNotFoundError, match="forecaster"):
            StreamingForecaster.load(saved)


class TestForecasterFacadeIntegration:
    TRAINING = {
        "history": 4, "horizon": 2, "hidden_dim": 6, "embed_dim": 2,
        "epochs": 1, "batch_size": 64, "seed": 0,
    }

    @pytest.fixture(scope="class")
    def fitted(self):
        from repro.api import Forecaster
        from repro.data import TrafficData, generate_traffic, train_val_test_split

        network = grid_network(3, 3)
        values = generate_traffic(network, 260, seed=3)
        traffic = TrafficData(name="stream-test", values=values, network=network)
        train, val, _ = train_val_test_split(traffic)
        return Forecaster.from_spec({"method": "MVE", "training": self.TRAINING}).fit(
            train, val
        )

    def test_stream_and_observe_through_the_facade(self, fitted):
        stream = fitted.stream(detectors=[], aci={"mode": "rolling"})
        assert stream.history == 4 and stream.horizon == 2
        rng = np.random.default_rng(0)
        result = None
        for _ in range(6):
            result = fitted.observe(rng.uniform(0.0, 100.0, size=9))
        assert result.prediction is not None
        assert result.prediction.mean.shape == (1, 2, 9)

    def test_observe_without_stream_raises(self, fitted):
        from repro.api import Forecaster

        fresh = Forecaster.from_spec({"method": "MVE", "training": self.TRAINING})
        with pytest.raises(RuntimeError, match="stream"):
            fresh.observe(np.zeros(9))

    def test_stream_requires_fitted(self):
        from repro.api import Forecaster

        fresh = Forecaster.from_spec({"method": "MVE", "training": self.TRAINING})
        with pytest.raises(RuntimeError):
            fresh.stream()

    def test_streaming_save_load_roundtrip_with_checkpoint(self, fitted, tmp_path):
        stream = fitted.stream(detectors=[], aci={"mode": "rolling", "window": 32})
        rng = np.random.default_rng(1)
        for _ in range(10):
            stream.observe(rng.uniform(0.0, 100.0, size=9))
        stream.save(tmp_path / "full")

        restored = StreamingForecaster.load(tmp_path / "full", detectors=[])
        window = rng.uniform(0.0, 100.0, size=(1, 4, 9))
        np.testing.assert_array_equal(
            fitted.predict(window).mean, restored.forecaster.predict(window).mean
        )
        np.testing.assert_array_equal(
            stream.calibrator.quantiles(), restored.calibrator.quantiles()
        )
