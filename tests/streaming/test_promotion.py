"""Shadow/canary promotion of drift-triggered refits on a live stream.

End-to-end contract (fixed seeds throughout): drift fires, the refit is
staged as a candidate and scored on live observations next to the incumbent,
and it is promoted only when its rolling MAE/coverage beat the incumbent's —
a deliberately degraded candidate is rejected and rolled back off the
server.  Concurrent client traffic sees zero dropped requests and no shadow
leakage at any point.
"""

import threading

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.serving import InferenceServer
from repro.streaming import (
    CoverageBreachDetector,
    PersistenceForecaster,
    RefitPolicy,
    StreamingForecaster,
)

NODES = 4
HISTORY = 3
HORIZON = 2


class OffsetForecaster:
    """Persistence plus a constant bias — offset 0 matches the incumbent,
    a large offset is a deliberately degraded refit."""

    def __init__(self, offset):
        self.offset = float(offset)
        self.inner = PersistenceForecaster(horizon=HORIZON, sigma=1.0)

    def predict(self, windows):
        result = self.inner.predict(windows)
        return PredictionResult(
            mean=result.mean + self.offset,
            aleatoric_var=result.aleatoric_var,
            epistemic_var=result.epistemic_var,
        )


def _regime_shift_stream(seed=42, quiet=60, loud=240):
    rng = np.random.default_rng(seed)
    calm = 50.0 + rng.normal(size=(quiet, NODES))
    shifted = 120.0 + rng.normal(size=(loud, NODES)) * 3.0
    return np.concatenate([calm, shifted], axis=0)


def _runner(server, candidate, mode, eval_steps=30, **policy):
    incumbent = PersistenceForecaster(horizon=HORIZON, sigma=1.0)
    policy = {"cooldown": 10_000, **policy}
    return StreamingForecaster(
        incumbent,
        history=HISTORY,
        horizon=HORIZON,
        server=server,
        refit_fn=lambda recent: candidate,
        detectors=[
            CoverageBreachDetector(
                nominal=0.95, tolerance=0.05, window=20, patience=5, warmup=10
            )
        ],
        aci={"mode": "static", "window": 60, "min_scores": 10},
        refit_policy=RefitPolicy(
            quorum=1, mode=mode, eval_steps=eval_steps, background=False, **policy
        ),
    )


def _drive(runner, server, stream):
    """Run the stream while clients hammer the server; returns client futures."""
    futures = []
    stop = threading.Event()

    def client():
        rng = np.random.default_rng(1)
        while not stop.is_set():
            window = rng.uniform(0.0, 100.0, size=(HISTORY, NODES))
            futures.append(server.submit(window))

    with server:
        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        for row in stream:
            runner.observe(row)
        runner.join_refit()
        stop.set()
        thread.join(timeout=10.0)
        results = [future.result(timeout=30.0) for future in futures]
    return futures, results


class TestShadowPromotionEndToEnd:
    @pytest.mark.parametrize("mode", ["shadow", "canary"])
    def test_good_candidate_is_auto_promoted(self, mode):
        candidate = OffsetForecaster(0.0)
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=64)
        server.deploy("incumbent", PersistenceForecaster(horizon=HORIZON, sigma=1.0))
        runner = _runner(server, candidate, mode)

        futures, results = _drive(runner, server, _regime_shift_stream())

        # Zero dropped requests: every submitted future resolved.
        assert len(results) == len(futures) > 0
        assert all(isinstance(result, PredictionResult) for result in results)
        assert server.stats["requests_served"] == len(futures)

        kinds = [event.kind for event in runner.event_log]
        assert "candidate_staged" in kinds
        assert "candidate_promoted" in kinds
        assert "candidate_rejected" not in kinds
        # The candidate now serves the default route and the runner's loop.
        assert server.pool.default_name == "stream-cand1"
        assert server.model_version == "stream-recal1"
        assert runner.forecaster is candidate
        assert server.stats["promotions"] == 1
        # The trial is over: the caller's router was restored.
        assert type(server.router).__name__ == "Router"

    @pytest.mark.parametrize("mode", ["shadow", "canary"])
    def test_degraded_candidate_is_rejected_and_rolled_back(self, mode):
        candidate = OffsetForecaster(40.0)  # grossly biased refit
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=64)
        server.deploy("incumbent", PersistenceForecaster(horizon=HORIZON, sigma=1.0))
        runner = _runner(server, candidate, mode)
        incumbent = runner.forecaster

        futures, results = _drive(runner, server, _regime_shift_stream())

        # Zero dropped requests, even across staging and rollback.
        assert len(results) == len(futures) > 0
        assert server.stats["requests_served"] == len(futures)

        kinds = [event.kind for event in runner.event_log]
        assert "candidate_staged" in kinds
        assert "candidate_rejected" in kinds
        assert "candidate_promoted" not in kinds
        assert "model_swapped" not in kinds
        # Rolled back: the candidate is gone and the incumbent still serves.
        assert server.pool.default_name == "incumbent"
        assert "stream-cand1" not in server.pool
        assert runner.forecaster is incumbent
        assert server.stats["promotions"] == 0
        # The rejection is auditable: the decision records both MAEs.
        rejection = runner.event_log.of_kind("candidate_rejected")[0]
        assert rejection.value > rejection.threshold  # candidate MAE worse

    def test_shadow_trial_never_leaks_into_responses(self):
        """While the trial runs, external clients only ever see the incumbent."""
        candidate = OffsetForecaster(40.0)
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=0)
        incumbent_model = PersistenceForecaster(horizon=HORIZON, sigma=1.0)
        server.deploy("incumbent", incumbent_model)
        runner = _runner(server, candidate, "shadow", eval_steps=200)
        stream = _regime_shift_stream(quiet=60, loud=120)

        with server:
            for row in stream:
                runner.observe(row)
            assert runner.trial is not None  # trial still in flight
            # The candidate sees mirrored traffic...
            window = np.full((HISTORY, NODES), 55.0)
            result = server.submit(window).result(timeout=30.0)
            # ...but the response is the incumbent's (no +40 bias).
            direct = incumbent_model.predict(window[None])
            np.testing.assert_allclose(result.mean, direct.mean)
        shadow_stats = server.stats["deployments"]["stream-cand1"]
        assert shadow_stats["shadow_windows"] > 0
        assert shadow_stats["requests_served"] == 0

    def test_trial_longer_than_metric_window_still_reaches_a_verdict(self):
        """Regression: scored_steps once read the monitors' ring counts, which
        cap at metric_window — eval_steps > metric_window stalled forever."""
        candidate = OffsetForecaster(0.0)
        # metric_window much shorter than eval_steps
        runner = _runner(None, candidate, "shadow", eval_steps=60, metric_window=20)
        for row in _regime_shift_stream(quiet=60, loud=240):
            runner.observe(row)
        kinds = [event.kind for event in runner.event_log]
        assert "candidate_promoted" in kinds or "candidate_rejected" in kinds
        assert runner.trial is None

    def test_repeated_promotions_keep_one_displaced_generation(self):
        """The pool retains current + one rollback target, not every past model."""
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=0)
        server.deploy("incumbent", PersistenceForecaster(horizon=HORIZON, sigma=1.0))
        # cooldown=30 allows several drift -> trial cycles
        runner = _runner(server, OffsetForecaster(0.0), "shadow", cooldown=30)
        stream = np.concatenate(
            [_regime_shift_stream(seed=s, quiet=30, loud=150) for s in (1, 2, 3)]
        )
        with server:
            def refit(recent):
                return OffsetForecaster(0.0)

            runner.refit_fn = refit
            for row in stream:
                runner.observe(row)
            runner.join_refit()
        promotions = len(runner.event_log.of_kind("candidate_promoted"))
        assert promotions >= 2
        # Bounded pool: current default + one displaced generation (+ at most
        # one candidate whose trial the stream ended mid-flight) — past
        # incumbents do not accumulate, however many promotions happened.
        assert len(server.pool) <= 3
        assert "incumbent" not in server.pool
        assert server.pool.default_name.startswith("stream-cand")

    def test_manual_rollback_target_survives_the_next_promotion(self):
        """An operator rolls the default route back to the displaced
        incumbent; the next promotion displaces it again and must keep it
        as the rollback target instead of retiring it."""
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=0)
        server.deploy("incumbent", PersistenceForecaster(horizon=HORIZON, sigma=1.0))
        runner = StreamingForecaster(
            PersistenceForecaster(horizon=HORIZON, sigma=1.0),
            history=HISTORY,
            horizon=HORIZON,
            server=server,
            refit_fn=lambda recent: PersistenceForecaster(horizon=HORIZON, sigma=1.0),
            detectors=[_FireOnce(at=10), _FireOnce(at=30)],
            refit_policy=RefitPolicy(
                quorum=1, mode="immediate", cooldown=5, background=False
            ),
        )
        with server:
            for step in range(40):
                runner.observe(np.full(NODES, 50.0))
                if step == 11:  # the first refit was promoted at step 11
                    assert server.pool.default_name == "stream-cand1"
                    assert server.rollback() == "incumbent"
        assert server.pool.default_name == "stream-cand2"
        assert "incumbent" in server.pool
        assert server.rollback() == "incumbent"

    def test_canary_serves_its_share_of_runner_forecasts(self):
        candidate = OffsetForecaster(0.0)
        runner = _runner(None, candidate, "canary", eval_steps=10_000, canary_fraction=0.25)
        served = []
        for row in _regime_shift_stream(quiet=60, loud=160):
            served.append(runner.observe(row).served_by)
        assert runner.trial is not None
        assert served.count("candidate") > 0
        # Deficit admission keeps the realized share at the configured 25%.
        start = next(i for i, s in enumerate(served) if s == "candidate")
        window = served[start - 1 :]
        assert abs(window.count("candidate") / len(window) - 0.25) < 0.05


class _Broken:
    def predict(self, windows):
        raise RuntimeError("corrupt checkpoint")


class _FireOnce:
    """Deterministic detector: one coverage-breach event at a fixed step."""

    signal = "coverage"

    def __init__(self, at):
        self.at = int(at)

    def update(self, step, value):
        from repro.streaming import DriftEvent

        if step == self.at:
            return DriftEvent(kind="coverage_breach", step=step, value=0.0, threshold=0.0)
        return None


class TestTrialFailuresAndVerdicts:
    def test_broken_candidate_fails_its_trial_without_wedging_the_loop(self):
        """Regression: a candidate whose predict raised made every later
        observe raise, re-resolving the same row on each retry."""
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=0)
        server.deploy("incumbent", PersistenceForecaster(horizon=HORIZON, sigma=1.0))
        caller_router = server.router
        runner = _runner(server, _Broken(), "shadow")
        with server:
            results = [runner.observe(row) for row in _regime_shift_stream()]

        kinds = [event.kind for event in runner.event_log]
        assert kinds.count("candidate_staged") == 1
        assert kinds.count("candidate_failed") == 1
        assert "candidate_promoted" not in kinds and "candidate_rejected" not in kinds
        assert runner.trial is None
        # The candidate is retired and the caller's routing is back.
        assert "stream-cand1" not in server.pool
        assert server.pool.default_name == "incumbent"
        assert server.router is caller_router
        # Every row advanced the stream exactly once, and the incumbent kept
        # forecasting through the failure.
        assert [result.step for result in results] == list(range(len(results)))
        (failed,) = runner.event_log.of_kind("candidate_failed")
        after = results[failed.step]
        assert "candidate_failed" in [event.kind for event in after.events]
        assert after.prediction is not None and after.served_by == "incumbent"
        assert all(result.prediction is not None for result in results[failed.step:])

    def test_verdicts_are_not_drift(self):
        """Regression: the loop counted its own candidate_promoted verdict as
        drift, so one breach with cooldown < eval_steps relaunched refits
        every few steps (18 refits in 200 steps)."""
        runner = StreamingForecaster(
            PersistenceForecaster(horizon=HORIZON, sigma=1.0),
            history=HISTORY,
            horizon=HORIZON,
            refit_fn=lambda recent: PersistenceForecaster(horizon=HORIZON, sigma=1.0),
            detectors=[_FireOnce(at=12)],
            aci={"mode": "static", "window": 60, "min_scores": 10},
            refit_policy=RefitPolicy(
                quorum=1, mode="shadow", cooldown=5, eval_steps=10, background=False
            ),
        )
        for _ in range(200):
            runner.observe(np.full(NODES, 50.0))
        starts = runner.event_log.of_kind("recalibration_started")
        assert len(starts) == 1
        assert starts[0].step == 12 and starts[0].message == "triggered by coverage_breach"
        assert len(runner.event_log.of_kind("candidate_promoted")) == 1
