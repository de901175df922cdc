"""SLO engine: spec validation, burn-rate math, the alert state machine."""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.fleet import StreamFleet
from repro.obs.events import recent_events
from repro.obs.slo import SLOEngine, SLOSpec, default_slos
from repro.obs.timeseries import MetricsHistory
from repro.serving import InferenceServer


def _engine(*specs, **kwargs):
    return SLOEngine(specs=list(specs), **kwargs)


class TestSpecValidation:
    def test_ratio_needs_good_and_total(self):
        with pytest.raises(ValueError, match="good"):
            SLOSpec(name="avail", kind="ratio", total="t")

    def test_bound_kinds_need_metric_and_bound(self):
        with pytest.raises(ValueError, match="metric"):
            SLOSpec(name="lat", kind="upper", bound=1.0)
        with pytest.raises(ValueError, match="bound"):
            SLOSpec(name="lat", kind="upper", metric="m")

    def test_target_and_windows_are_validated(self):
        with pytest.raises(ValueError, match="target"):
            SLOSpec(name="x", kind="zero", metric="m", target=1.0)
        with pytest.raises(ValueError, match="windows"):
            SLOSpec(name="x", kind="zero", metric="m", long_window=4, short_window=9)
        with pytest.raises(ValueError, match="kind"):
            SLOSpec(name="x", kind="median", metric="m")
        with pytest.raises(ValueError, match="severity"):
            SLOSpec(name="x", kind="zero", metric="m", severity="sev1")

    def test_duplicate_spec_names_rejected(self):
        engine = _engine(SLOSpec(name="a", kind="zero", metric="m"))
        with pytest.raises(ValueError, match="already exists"):
            engine.add_spec(SLOSpec(name="a", kind="zero", metric="m"))

    def test_budget_is_one_minus_target(self):
        assert SLOSpec(name="a", kind="zero", metric="m", target=0.95).budget == pytest.approx(0.05)


class TestBadFraction:
    def test_ratio_uses_windowed_counter_deltas(self):
        spec = SLOSpec(name="avail", kind="ratio", good="ok", total="all", target=0.9)
        history = MetricsHistory()
        # 10 requests per tick, 2 of them bad from tick 2 on.
        ok = all_ = 0
        for tick in range(6):
            history.record(tick, {"ok": ok, "all": all_})
            bad = 2 if tick >= 2 else 0
            ok += 10 - bad
            all_ += 10
        assert spec.bad_fraction(history, "avail", 3) == pytest.approx(0.2)
        # No traffic in the window burns no budget.
        empty = MetricsHistory()
        empty.record(0, {"ok": 5, "all": 5})
        empty.record(1, {"ok": 5, "all": 5})
        assert spec.bad_fraction(empty, "avail", 2) == 0.0

    def test_upper_and_lower_count_violating_samples(self):
        history = MetricsHistory()
        for tick, value in enumerate([0.1, 0.9, 0.9, 0.1]):
            history.record(tick, {"lat": value})
        upper = SLOSpec(name="u", kind="upper", metric="lat", bound=0.5, target=0.9)
        lower = SLOSpec(name="l", kind="lower", metric="lat", bound=0.5, target=0.9)
        assert upper.bad_fraction(history, "lat", 4) == pytest.approx(0.5)
        assert lower.bad_fraction(history, "lat", 4) == pytest.approx(0.5)
        assert upper.bad_fraction(history, "missing", 4) == 0.0

    def test_zero_kind_is_binary_on_counter_increase(self):
        history = MetricsHistory()
        for tick, value in enumerate([0, 0, 1, 1]):
            history.record(tick, {"drops": value})
        spec = SLOSpec(name="z", kind="zero", metric="drops", long_window=4, short_window=2)
        assert spec.bad_fraction(history, "drops", 4) == 1.0
        assert spec.bad_fraction(history, "drops", 2) == 0.0  # flat recently

    def test_wildcard_expansion_tracks_recorded_series(self):
        history = MetricsHistory()
        history.record(0, {"s.a.cov": 1.0, "s.b.cov": 1.0, "s.a.mae": 0.1})
        spec = SLOSpec(name="cov", kind="lower", metric="s.*.cov", bound=0.5)
        assert spec.expand(history) == ["s.a.cov", "s.b.cov"]


class TestStateMachine:
    def _cov_engine(self, for_ticks=2):
        spec = SLOSpec(
            name="cov",
            kind="lower",
            metric="m.cov",
            bound=0.8,
            target=0.8,
            long_window=4,
            short_window=2,
            for_ticks=for_ticks,
            severity="page",
        )
        return _engine(spec)

    def _drive(self, engine, values):
        transitions = []
        for tick, value in enumerate(values):
            engine.history.record(tick, {"m.cov": value})
            transitions.extend(engine.evaluate(tick))
        return transitions

    def test_full_lifecycle_pending_firing_resolved(self):
        engine = self._cov_engine()
        good, bad = 0.95, 0.2
        transitions = self._drive(engine, [good] * 4 + [bad] * 8 + [good] * 6)
        states = [(t["tick"], t["state"]) for t in transitions]
        # Breach needs the short window fully bad; for_ticks=2 delays firing.
        assert states[0][1] == "pending"
        assert states[1][1] == "firing"
        assert states[1][0] - states[0][0] == 2
        assert states[2][1] == "resolved"
        (alert,) = engine.alerts()
        assert alert.state == "resolved"
        assert alert.fired_at is not None and alert.resolved_at is not None
        assert engine.firing(severity="page") == []

    def test_for_ticks_zero_fires_in_one_evaluation(self):
        engine = self._cov_engine(for_ticks=0)
        transitions = self._drive(engine, [0.9] * 4 + [0.1] * 4)
        states = [t["state"] for t in transitions]
        assert states[:2] == ["pending", "firing"]
        assert transitions[0]["tick"] == transitions[1]["tick"]

    def test_short_breach_stands_down_without_firing(self):
        engine = self._cov_engine(for_ticks=5)
        self._drive(engine, [0.9] * 4 + [0.1] * 3 + [0.9] * 6)
        (alert,) = engine.alerts()
        assert alert.state == "inactive"  # never fired -> not "resolved"
        assert alert.fired_at is None
        assert "firing" not in [t["state"] for t in engine.transitions()]

    def test_rebreach_from_resolved_goes_pending_again(self):
        engine = self._cov_engine(for_ticks=0)
        transitions = self._drive(
            engine, [0.9] * 4 + [0.1] * 4 + [0.9] * 4 + [0.1] * 4
        )
        states = [t["state"] for t in transitions]
        assert states == ["pending", "firing", "resolved", "pending", "firing"]

    def test_firing_alert_degrades_and_transitions_emit_events(self):
        obs.configure(logging=True, log_sink=False)
        engine = self._cov_engine(for_ticks=0)
        self._drive(engine, [0.9] * 4 + [0.1] * 4)
        assert engine.firing(severity="page")
        assert [a.series for a in engine.firing(severity="page")] == ["m.cov"]
        kinds = [record["kind"] for record in recent_events()]
        assert "slo.alert_pending" in kinds and "slo.alert_firing" in kinds

    def test_deterministic_given_identical_histories(self):
        runs = []
        for _ in range(2):
            engine = self._cov_engine()
            runs.append(self._drive(engine, [0.9] * 4 + [0.1] * 6 + [0.9] * 5))
        assert runs[0] == runs[1]


class TestEngineSurfaces:
    def test_step_samples_then_evaluates(self):
        engine = _engine(
            SLOSpec(name="z", kind="zero", metric="src.drops",
                    long_window=4, short_window=2)
        )
        state = {"drops": 0}
        engine.history.add_source("src", lambda: dict(state))
        for tick in range(4):
            engine.step(tick)
        state["drops"] = 1
        transitions = engine.step(4)
        assert [t["state"] for t in transitions] == ["pending", "firing"]
        assert engine.evaluations == 5

    def test_snapshot_is_strict_json(self):
        engine = _engine(*default_slos())
        engine.history.record(0, {"fleet.stream.s0.coverage": 0.1})
        engine.evaluate(0)
        text = json.dumps(engine.snapshot(), allow_nan=False)
        snapshot = json.loads(text)
        assert snapshot["evaluations"] == 1
        assert {spec["name"] for spec in snapshot["specs"]} == {
            "availability", "predict_p99_latency", "stream_coverage", "zero_drop",
        }

    def test_transition_counts_are_monotonic(self):
        engine = _engine(
            SLOSpec(name="z", kind="zero", metric="d", long_window=4,
                    short_window=2, for_ticks=0)
        )
        drops = 0
        for tick in range(12):
            if tick in (4, 8):
                drops += 1
            engine.history.record(tick, {"d": drops})
            engine.evaluate(tick)
        counts = engine.transition_counts()
        assert counts[("z", "firing")] == 2
        assert counts[("z", "resolved")] == 2
        history_len = len(engine.transitions(limit=100))
        assert history_len == sum(counts.values())

    def test_transition_history_is_bounded(self):
        engine = _engine(
            SLOSpec(name="z", kind="zero", metric="d", long_window=3,
                    short_window=2, for_ticks=0),
            transition_history=4,
        )
        drops = 0
        for tick in range(40):
            if tick % 3 == 0:
                drops += 1
            engine.history.record(tick, {"d": drops})
            engine.evaluate(tick)
        assert len(engine.transitions(limit=1000)) == 4


class TestZeroKindFirstAppearance:
    def test_first_event_of_a_kind_breaches_immediately(self):
        """The event counter doesn't exist until the first event lands; the
        0 -> N appearance must read as a breach on that very tick."""
        engine = _engine(
            SLOSpec(name="z", kind="zero", metric="fleet.events.failed",
                    long_window=8, short_window=2, for_ticks=0)
        )
        for tick in range(6):
            engine.history.record(tick, {"fleet.tick": float(tick)})
            assert engine.evaluate(tick) == []
        engine.history.record(6, {"fleet.tick": 6.0, "fleet.events.failed": 3.0})
        transitions = engine.evaluate(6)
        assert [t["state"] for t in transitions] == ["pending", "firing"]
        engine.history.record(7, {"fleet.tick": 7.0, "fleet.events.failed": 3.0})
        assert [t["state"] for t in engine.evaluate(7)] == ["resolved"]


class TestDefaultCoverageSLO:
    """``stream_coverage`` compares the monitor's rolling coverage, which is
    in percent, with a bound in percent."""

    @staticmethod
    def _held(covered, sensors, ticks=30):
        """A one-stream fleet whose monitor is held at ``covered / sensors``."""
        fleet = StreamFleet(InferenceServer(cache_size=0), history=2, horizon=1)
        fleet.add_stream("s0")
        engine = fleet.attach_slo(SLOEngine(default_slos()))
        monitor = fleet["s0"].core.monitor
        target = np.zeros(sensors)
        lower = np.where(np.arange(sensors) < covered, -1.0, 1.0)
        for tick in range(ticks):
            monitor.update(target, target, lower, lower + 2.0)
            engine.step(tick)
        (alert,) = [a for a in engine.alerts() if a.spec.name == "stream_coverage"]
        return monitor.coverage, alert

    def test_stream_near_half_coverage_fires(self):
        coverage, alert = self._held(covered=1, sensors=2)
        assert coverage == pytest.approx(50.0)
        assert alert.series == "fleet.stream.s0.coverage"
        assert alert.state == "firing"

    def test_stream_near_nominal_coverage_stays_inactive(self):
        coverage, alert = self._held(covered=19, sensors=20)
        assert coverage == pytest.approx(95.0)
        assert alert.state == "inactive"
