"""RollingStat numeric accuracy and the v2 stream-core state protocol.

Three regressions pinned here:

* ``RollingStat``'s incremental running sum used to accumulate float
  cancellation error without bound — push ``1e12`` and then a long stream
  of tiny values and the reported mean ended up dominated by the leftover
  of the subtraction.  The fix re-sums the ring exactly on every wrap.
* Drift detectors used to fall out of ``StreamCore.get_state`` entirely: a
  checkpoint taken mid-patience / mid-CUSUM-accumulation silently re-armed
  the detectors on restore, so a restored stream fired later (or never)
  compared to an uninterrupted one.
* Format-version handling: v2 snapshots round-trip detectors and ledgers
  bit-identically; v1 snapshots still load (detectors and ledgers restore
  fresh); unknown versions are rejected loudly.
"""

import numpy as np
import pytest

from repro.streaming import (
    CoverageBreachDetector,
    ErrorCusumDetector,
    PersistenceForecaster,
)
from repro.streaming.monitor import RollingStat
from repro.streaming.shard import STREAM_CORE_FORMAT_VERSION, StreamCore

HISTORY, HORIZON, NODES = 6, 2, 3


def _exact_window_mean(values, window):
    tail = np.asarray(values[-window:], dtype=np.float64)
    return float(tail.sum() / len(tail))


class TestRollingStatAccuracy:
    def _adversarial_stream(self, pushes):
        # One huge value followed by tiny alternating ones: the incremental
        # sum keeps the cancellation residue of the 1e12 subtraction forever.
        values = [1e12]
        values.extend(1e-4 * ((i % 7) + 1) for i in range(pushes - 1))
        return values

    def test_mean_stays_exact_on_adversarial_stream(self):
        window = 288
        stat = RollingStat(window)
        values = self._adversarial_stream(200_001)
        for value in values:
            stat.push(value)
        exact = _exact_window_mean(values, window)
        assert stat.mean == pytest.approx(exact, rel=1e-9)

    @pytest.mark.slow
    def test_mean_stays_exact_over_a_million_pushes(self):
        window = 288
        stat = RollingStat(window)
        values = self._adversarial_stream(1_000_001)
        for value in values:
            stat.push(value)
        exact = _exact_window_mean(values, window)
        assert stat.mean == pytest.approx(exact, rel=1e-9)

    def test_partial_ring_still_tracks_exactly(self):
        stat = RollingStat(64)
        values = [1e12] + [1e-4] * 10
        for value in values:
            stat.push(value)
        # No wrap yet: the documented contract is plain incremental float
        # accuracy, which the huge leading value legitimately dominates.
        assert stat.count == 11
        assert stat.mean == pytest.approx(np.mean(values))


class TestDetectorMidStateContinuation:
    """A snapshot taken mid-evidence must fire like the uninterrupted run."""

    def test_error_cusum_statistic_survives_and_fires_on_schedule(self):
        def drive(detector, start, stop):
            fired = []
            for step in range(start, stop):
                error = 1.0 if step < 60 else 4.0  # baseline, then a shift
                event = detector.update(step, error)
                if event is not None:
                    fired.append(event.step)
            return fired

        reference = ErrorCusumDetector(slack=1.0, threshold=10.0, warmup=40)
        reference_fires = drive(reference, 0, 100)

        interrupted = ErrorCusumDetector(slack=1.0, threshold=10.0, warmup=40)
        assert drive(interrupted, 0, 63) == []
        snapshot = interrupted.get_state()
        assert float(snapshot["arrays"]["statistic"]) > 0.0  # evidence mid-flight

        restored = ErrorCusumDetector().set_state(snapshot)
        assert drive(restored, 63, 100) == reference_fires
        final, expected = restored.get_state(), reference.get_state()
        assert final["meta"] == expected["meta"]
        for key, array in expected["arrays"].items():
            np.testing.assert_array_equal(final["arrays"][key], array, err_msg=key)

    def test_coverage_breach_patience_survives_restore(self):
        def make():
            return CoverageBreachDetector(
                nominal=0.95, tolerance=0.05, window=20, patience=5, warmup=10
            )

        def drive(detector, start, stop):
            fired = []
            for step in range(start, stop):
                covered = 1.0 if step < 30 else 0.0
                event = detector.update(step, covered)
                if event is not None:
                    fired.append(event.step)
            return fired

        reference_fires = drive(make(), 0, 60)
        assert reference_fires  # the collapse does fire

        interrupted = make()
        drive(interrupted, 0, 33)  # three breached steps into patience=5
        snapshot = interrupted.get_state()
        assert snapshot["meta"]["breached_steps"] > 0

        restored = make().set_state(snapshot)
        fires = drive(restored, 33, 60)
        assert fires == reference_fires

    def test_wrong_kind_snapshot_is_rejected(self):
        cusum_state = ErrorCusumDetector().get_state()
        with pytest.raises(ValueError, match="coverage_breach"):
            CoverageBreachDetector().set_state(cusum_state)


def _make_core():
    return StreamCore(
        HISTORY,
        HORIZON,
        aci={"window": 100, "gamma": 0.02},
        detectors=[
            CoverageBreachDetector(
                nominal=0.95, tolerance=0.05, window=20, patience=5, warmup=10
            ),
            ErrorCusumDetector(slack=0.5, threshold=8.0, warmup=20),
        ],
    )


def _rows(steps, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(50.0, 150.0, size=(steps, NODES))
    rows[steps // 3, 1] = np.nan  # exercise the carry-forward imputation
    return rows


def _ingest(core, row):
    """Resolve, detect and append one row, in the solo runner's order."""
    obs, valid = core.normalize(row)
    resolved = core.resolve(core.step, obs, valid)
    core.detect(core.step, resolved.covered, resolved.abs_error)
    core.append(obs, valid)


def _drive(core, rows, model):
    for row in rows:
        _ingest(core, row)
        window = core.window()
        if window is not None:
            core.record(model.predict(window))
        core.advance()


class TestStreamCoreStateV2:
    def test_mid_stream_snapshot_continues_bit_identically(self):
        model = PersistenceForecaster(horizon=HORIZON, sigma=5.0)
        rows = _rows(120, seed=4)

        reference = _make_core()
        _drive(reference, rows, model)

        interrupted = _make_core()
        _drive(interrupted, rows[:60], model)
        restored = _make_core().set_state(interrupted.get_state())
        _drive(restored, rows[60:], model)

        expected = reference.get_state()
        actual = restored.get_state()
        assert actual["meta"] == expected["meta"]
        assert set(actual["arrays"]) == set(expected["arrays"])
        for key, array in expected["arrays"].items():
            np.testing.assert_array_equal(actual["arrays"][key], array, err_msg=key)
        # The restored core is warm: it predicts without re-warming.
        assert restored.warmed_up

    def test_v1_snapshot_is_rejected(self):
        """Version 1 held no detector or ledger state; this build reads
        version 2 only."""
        model = PersistenceForecaster(horizon=HORIZON, sigma=5.0)
        source = _make_core()
        _drive(source, _rows(60, seed=7), model)
        v2 = source.get_state()

        v1_meta = {
            key: value
            for key, value in v2["meta"].items()
            if key not in ("detectors", "pending")
        }
        v1_meta["format_version"] = 1
        v1_arrays = {
            key: value
            for key, value in v2["arrays"].items()
            if not key.startswith(("detector.", "pending.", "core."))
        }

        with pytest.raises(ValueError, match="unsupported stream-core state format 1"):
            _make_core().set_state({"meta": v1_meta, "arrays": v1_arrays})

    def test_unknown_format_version_is_rejected(self):
        state = _make_core().get_state()
        state["meta"]["format_version"] = STREAM_CORE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported stream-core state format"):
            _make_core().set_state(state)

    def test_foreign_state_kind_is_rejected(self):
        with pytest.raises(ValueError, match="not a stream core"):
            _make_core().set_state({"meta": {"kind": "gizmo"}, "arrays": {}})
