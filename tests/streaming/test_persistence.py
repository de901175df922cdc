"""Monitor / event-log persistence: streaming state survives restarts."""

import numpy as np
import pytest

from repro.streaming import (
    CoverageBreachDetector,
    EventLog,
    PersistenceForecaster,
    RefitPolicy,
    RollingStat,
    StreamingForecaster,
    StreamingMonitor,
)


def _drifting_stream(nodes=4, quiet=60, loud=60, seed=7):
    rng = np.random.default_rng(seed)
    calm = 50.0 + rng.normal(size=(quiet, nodes))
    wild = 50.0 + rng.normal(size=(loud, nodes)) * 25.0
    return np.concatenate([calm, wild], axis=0)


class TestRollingStatState:
    def test_round_trip_is_bit_identical(self, rng):
        stat = RollingStat(window=16)
        for value in rng.normal(size=40):
            stat.push(float(value))
        restored = RollingStat(window=16).set_state(stat.get_state())
        assert restored.mean == stat.mean
        assert restored.count == stat.count
        np.testing.assert_array_equal(restored.values(), stat.values())
        # Pushing the same value into both keeps them in lockstep (cursor and
        # running sum restored exactly, not just the visible window).
        stat.push(3.25)
        restored.push(3.25)
        assert restored.mean == stat.mean

    def test_rejects_mismatched_window(self):
        stat = RollingStat(window=8)
        with pytest.raises(ValueError, match="window"):
            RollingStat(window=4).set_state(stat.get_state())


class TestMonitorState:
    def test_round_trip_is_bit_identical(self, rng):
        monitor = StreamingMonitor(window=32, significance=0.1)
        for _ in range(50):
            target = rng.normal(size=(3, 4))
            mean = target + rng.normal(size=(3, 4)) * 0.3
            lower, upper = mean - 1.0, mean + 1.0
            monitor.update(target, mean, lower, upper)
        restored = StreamingMonitor(window=32).set_state(monitor.get_state())
        assert restored.snapshot() == monitor.snapshot()

    def test_kind_and_window_validated(self):
        monitor = StreamingMonitor(window=16)
        with pytest.raises(ValueError, match="window"):
            StreamingMonitor(window=8).set_state(monitor.get_state())
        with pytest.raises(ValueError, match="monitor"):
            StreamingMonitor(window=16).set_state(
                {"meta": {"kind": "aci"}, "arrays": {}}
            )


class TestEventLogRecords:
    def test_round_trip_preserves_every_event(self):
        from repro.streaming.drift import DriftEvent

        log = EventLog()
        log.append(DriftEvent("coverage_breach", 12, 0.81, 0.9, "breach"))
        log.append(DriftEvent("model_swapped", 40, 1.0, 0.0, "v0 -> v1"))
        restored = EventLog.from_records(log.to_records())
        assert list(restored) == list(log)


class TestRunnerPersistence:
    def _runner(self, server=None):
        return StreamingForecaster(
            PersistenceForecaster(horizon=2, sigma=1.0),
            history=3,
            horizon=2,
            detectors=[
                CoverageBreachDetector(
                    nominal=0.95, tolerance=0.05, window=20, patience=5, warmup=10
                )
            ],
            aci={"mode": "static", "window": 60, "min_scores": 10},
            refit_policy=RefitPolicy(
                quorum=1, mode="immediate", cooldown=10_000, background=False
            ),
            server=server,
        )

    def test_monitor_and_event_log_survive_save_load(self, tmp_path):
        runner = self._runner()
        for row in _drifting_stream():
            runner.observe(row)
        assert len(runner.event_log) > 0  # the drift actually fired
        before = runner.monitor.snapshot()

        runner.save(tmp_path / "ckpt")
        restored = StreamingForecaster.load(
            tmp_path / "ckpt",
            forecaster=PersistenceForecaster(horizon=2, sigma=1.0),
            history=3,
        )

        # Bit-identical monitor snapshot, not merely approximately equal.
        assert restored.monitor.snapshot() == before
        assert list(restored.event_log) == list(runner.event_log)
        assert restored.step == runner.step
        assert restored.coordinator.get_state() == runner.coordinator.get_state()

    def test_restored_monitor_keeps_rolling_from_where_it_stopped(self, tmp_path):
        stream = _drifting_stream()
        runner = self._runner()
        for row in stream[:80]:
            runner.observe(row)
        runner.save(tmp_path / "ckpt")
        restored = StreamingForecaster.load(
            tmp_path / "ckpt",
            forecaster=PersistenceForecaster(horizon=2, sigma=1.0),
            history=3,
        )
        # The restored runner needs no warm-up: its very first snapshot shows
        # the pre-restart rolling window instead of NaN-empty metrics.
        assert np.isfinite(restored.monitor.snapshot()["mae"])

    def test_old_checkpoints_without_stream_state_still_load(self, tmp_path):
        runner = self._runner()
        for row in _drifting_stream()[:40]:
            runner.observe(row)
        directory = runner.save(tmp_path / "ckpt")
        # Simulate a pre-runner-state checkpoint: drop the stream subdir.
        import shutil

        shutil.rmtree(directory / StreamingForecaster.STREAM_SUBDIR)
        restored = StreamingForecaster.load(
            directory,
            forecaster=PersistenceForecaster(horizon=2, sigma=1.0),
            history=3,
        )
        assert restored.step == 0
        assert len(restored.event_log) == 0


class _AlwaysFire:
    """Detector firing on every resolved step."""

    signal = "coverage"

    def update(self, step, value):
        from repro.streaming.drift import DriftEvent

        if value is None:
            return None
        return DriftEvent(kind="coverage_breach", step=step, value=0.0, threshold=1.0)


class TestRunnerCoordinatorState:
    """Solo checkpoints carry the refit coordinator: cooldown clock, refit
    count and partial quorum; a restored runner keeps its cooldown."""

    COOLDOWN, SAVE_AT, STEPS = 50, 20, 100

    def _runner(self, load_from=None):
        kwargs = dict(
            history=3,
            horizon=2,
            detectors=[_AlwaysFire()],
            refit_fn=lambda recent: PersistenceForecaster(horizon=2, sigma=1.0),
            refit_policy=RefitPolicy(
                quorum=1, mode="immediate", cooldown=self.COOLDOWN, background=False
            ),
        )
        model = PersistenceForecaster(horizon=2, sigma=1.0)
        if load_from is not None:
            return StreamingForecaster.load(load_from, forecaster=model, **kwargs)
        return StreamingForecaster(model, **kwargs)

    @staticmethod
    def _starts(runner):
        return [e.step for e in runner.event_log.of_kind("recalibration_started")]

    def _checkpoint(self, tmp_path, rows):
        runner = self._runner()
        for row in rows[: self.SAVE_AT]:
            runner.observe(row)
        return runner, runner.save(tmp_path / "ckpt")

    def _rows(self):
        return 50.0 + np.random.default_rng(3).normal(size=(self.STEPS, 4))

    def _uninterrupted_starts(self, rows):
        runner = self._runner()
        for row in rows:
            runner.observe(row)
        starts = self._starts(runner)
        # The detector fires every step: one refit per cooldown period.
        assert starts == [3, 3 + self.COOLDOWN]
        return starts

    def test_save_writes_the_coordinator_state(self, tmp_path):
        rows = self._rows()
        runner, directory = self._checkpoint(tmp_path, rows)
        from repro.utils.serialization import load_checkpoint

        meta, _ = load_checkpoint(directory / StreamingForecaster.STREAM_SUBDIR)
        assert meta["format_version"] == 3
        assert meta["coordinator"] == runner.coordinator.get_state()
        assert meta["coordinator"]["last_trigger"] == {"stream": 3}
        assert meta["coordinator"]["refit_count"] == 1
        # The detector keeps firing inside the cooldown: partial quorum.
        assert meta["coordinator"]["drifted"] == {"stream": {"stream": self.SAVE_AT - 1}}

        restored = self._runner(load_from=directory)
        assert restored.coordinator.get_state() == runner.coordinator.get_state()
        for row in rows[self.SAVE_AT:]:
            restored.observe(row)
        assert self._starts(restored) == self._uninterrupted_starts(rows)

    def test_checkpoints_with_flat_cooldown_keys_are_rejected(self, tmp_path):
        """Format-2 stream checkpoints kept the cooldown clock and refit
        count as flat ``last_trigger`` / ``refit_count`` keys; this build
        reads format 3 only."""
        _, directory = self._checkpoint(tmp_path, self._rows())
        from repro.utils.serialization import load_checkpoint, save_checkpoint

        stream_dir = directory / StreamingForecaster.STREAM_SUBDIR
        meta, arrays = load_checkpoint(stream_dir)
        del meta["coordinator"]
        meta.update(format_version=2, last_trigger=3, refit_count=1)
        save_checkpoint(stream_dir, meta, arrays)

        with pytest.raises(ValueError, match="unsupported stream checkpoint format 2"):
            self._runner(load_from=directory)
