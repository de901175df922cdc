"""SLO engine: spec validation, sampling, burn-rate math, the alert state machine."""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.fleet import StreamFleet
from repro.obs.events import recent_events
from repro.obs.slo import (
    SLOEngine,
    SLOSpec,
    _counter_delta,
    default_slos,
    fleet_source,
    gateway_source,
)
from repro.serving import InferenceServer


def _engine(*specs, **kwargs):
    return SLOEngine(specs=list(specs), **kwargs)


def _fed(engine, name="src"):
    """Register a source under ``name`` that returns a mutable dict's copy."""
    state = {}
    engine.add_source(name, lambda: dict(state))
    return state


def _rows(engine):
    """The ``(tick, values)`` rows the engine currently keeps."""
    return list(engine._rows)


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

    def test_counter_kinds_need_two_sample_short_windows(self):
        """A counter's delta over one sample is always 0, so a ``ratio`` or
        ``zero`` spec with ``short_window=1`` could never breach."""
        with pytest.raises(ValueError, match="short_window >= 2"):
            SLOSpec(name="z", kind="zero", metric="m", long_window=2, short_window=1)
        with pytest.raises(ValueError, match="short_window >= 2"):
            SLOSpec(name="a", kind="ratio", good="g", total="t", short_window=1)
        # Gauge kinds read one sample per point, so one sample is a window.
        SLOSpec(name="u", kind="upper", metric="m", bound=1.0, short_window=1)
        SLOSpec(name="l", kind="lower", metric="m", bound=1.0, short_window=1)

    def test_budget_is_one_minus_target(self):
        assert SLOSpec(name="a", kind="zero", metric="m", target=0.95).budget == pytest.approx(0.05)


class TestBadFraction:
    def test_ratio_uses_windowed_counter_deltas(self):
        spec = SLOSpec(name="avail", kind="ratio", good="ok", total="all", target=0.9)
        rows = []
        # 10 requests per tick, 2 of them bad from tick 2 on.
        ok = all_ = 0.0
        for tick in range(6):
            rows.append((tick, {"ok": ok, "all": all_}))
            bad = 2 if tick >= 2 else 0
            ok += 10 - bad
            all_ += 10
        assert spec.bad_fraction(rows, "avail", 3) == pytest.approx(0.2)
        # No traffic in the window burns no budget.
        empty = [(0, {"ok": 5.0, "all": 5.0}), (1, {"ok": 5.0, "all": 5.0})]
        assert spec.bad_fraction(empty, "avail", 2) == 0.0

    def test_upper_and_lower_count_violating_samples(self):
        rows = [(tick, {"lat": value}) for tick, value in enumerate([0.1, 0.9, 0.9, 0.1])]
        upper = SLOSpec(name="u", kind="upper", metric="lat", bound=0.5, target=0.9)
        lower = SLOSpec(name="l", kind="lower", metric="lat", bound=0.5, target=0.9)
        assert upper.bad_fraction(rows, "lat", 4) == pytest.approx(0.5)
        assert lower.bad_fraction(rows, "lat", 4) == pytest.approx(0.5)
        assert upper.bad_fraction(rows, "missing", 4) == 0.0

    def test_zero_kind_is_binary_on_counter_increase(self):
        rows = [(tick, {"drops": float(value)}) for tick, value in enumerate([0, 0, 1, 1])]
        spec = SLOSpec(name="z", kind="zero", metric="drops", long_window=4, short_window=2)
        assert spec.bad_fraction(rows, "drops", 4) == 1.0
        assert spec.bad_fraction(rows, "drops", 2) == 0.0  # flat recently

    def test_wildcard_expansion_tracks_recorded_series(self):
        rows = [(0, {"s.a.cov": 1.0, "s.b.cov": 1.0, "s.a.mae": 0.1})]
        spec = SLOSpec(name="cov", kind="lower", metric="s.*.cov", bound=0.5)
        assert spec.expand(rows) == ["s.a.cov", "s.b.cov"]
        assert spec.expand([]) == []


class TestSampling:
    """Sources are polled once per step into one row of finite floats."""

    def test_sources_are_polled_with_name_prefixes(self):
        engine = _engine(SLOSpec(name="z", kind="zero", metric="fleet.tick"))
        engine.add_source("server", lambda: {"requests": 3, "depth": 1.5})
        engine.add_source("fleet", lambda: {"tick": 7})
        engine.step(0)
        assert _rows(engine) == [
            (0, {"server.requests": 3.0, "server.depth": 1.5, "fleet.tick": 7.0})
        ]

    def test_reregistering_a_source_replaces_it(self):
        engine = _engine(SLOSpec(name="z", kind="zero", metric="s.x"))
        engine.add_source("s", lambda: {"x": 1})
        engine.add_source("s", lambda: {"x": 2})
        engine.step(0)
        assert _rows(engine) == [(0, {"s.x": 2.0})]
        assert engine.stats["sources"] == 1

    def test_raising_source_is_counted_not_fatal(self):
        engine = _engine(SLOSpec(name="z", kind="zero", metric="good.x"))

        def broken():
            raise RuntimeError("stats backend down")

        engine.add_source("bad", broken)
        engine.add_source("good", lambda: {"x": 1})
        assert engine.step(0) == []
        assert _rows(engine) == [(0, {"good.x": 1.0})]
        assert engine.stats["source_errors"] == 1

    def test_non_finite_and_non_numeric_values_dropped_at_the_door(self):
        engine = _engine(SLOSpec(name="z", kind="zero", metric="m.ok"))
        engine.add_source(
            "m",
            lambda: {
                "nan": float("nan"),
                "inf": float("inf"),
                "text": "whee",
                "ok": 0.25,
            },
        )
        engine.step(0)
        assert _rows(engine) == [(0, {"m.ok": 0.25})]

    def test_non_callable_source_rejected(self):
        with pytest.raises(TypeError):
            SLOEngine().add_source("x", 42)


class TestRetention:
    """The engine keeps exactly the rows its longest window reads."""

    def test_longest_long_window_bounds_the_rows(self):
        engine = _engine(
            SLOSpec(name="a", kind="zero", metric="s.x", long_window=4, short_window=2),
            SLOSpec(name="b", kind="zero", metric="s.x", long_window=3, short_window=2),
        )
        state = _fed(engine, "s")
        for tick in range(10):
            state["x"] = tick
            engine.step(tick)
        assert [tick for tick, _ in _rows(engine)] == [6, 7, 8, 9]
        assert engine.stats == {
            "samples": 4,
            "capacity": 4,
            "sources": 1,
            "source_errors": 0,
            "last_tick": 9,
        }

    def test_default_slos_over_a_fleet_sized_source_keep_twenty_rows(self):
        """A 256-stream fleet samples about 1,540 series per tick; the
        default objectives read at most 20 rows of them."""
        engine = _engine(*default_slos())
        metrics = {"tick": 0.0, "events.stream_predict_failed": 0.0}
        for index in range(256):
            for key in ("coverage", "mae", "rmse", "mean_width", "winkler", "steps"):
                metrics[f"stream.c{index}.{key}"] = 90.0
        engine.add_source("fleet", lambda: metrics)
        for tick in range(2000):
            metrics["tick"] = float(tick)
            engine.step(tick)
        assert engine.stats["samples"] == 20
        assert engine.stats["capacity"] == 20
        assert engine.stats["last_tick"] == 1999
        assert len(_rows(engine)[-1][1]) == 2 + 256 * 6

        # A spec added later deepens the store; it reads only the rows kept
        # so far until the deeper window fills.
        engine.add_spec(
            SLOSpec(name="slow_coverage", kind="lower", bound=85.0, target=0.8,
                    metric="fleet.stream.*.coverage", long_window=50, short_window=10)
        )
        assert engine.stats["capacity"] == 50
        assert engine.stats["samples"] == 20
        for tick in range(2000, 2040):
            engine.step(tick)
        assert engine.stats["samples"] == 50
        assert _rows(engine)[0][0] == 1990

    def test_no_specs_keep_no_rows(self):
        engine = SLOEngine()
        engine.add_source("s", lambda: {"x": 1})
        engine.step(0)
        assert engine.stats["samples"] == 0
        assert engine.stats["capacity"] == 0


class TestCounterDelta:
    """Windowed counter increases: last minus first, appearances from 0."""

    @staticmethod
    def _counter_rows():
        return [(tick, {"counter": 10.0 * tick, "gauge": 0.5}) for tick in range(6)]

    def test_counter_delta_is_last_minus_first_over_window(self):
        rows = self._counter_rows()
        assert _counter_delta(rows, "counter") == 50.0
        assert _counter_delta(rows[-3:], "counter") == 20.0
        assert _counter_delta(rows[-1:], "counter") == 0.0  # < 2 points
        assert _counter_delta(rows, "missing") == 0.0

    def test_metric_absent_from_some_rows_skips_those_rows(self):
        rows = [(0, {"x": 1.0}), (1, {}), (2, {"x": 5.0})]  # tick 1's NaN was dropped
        assert _counter_delta(rows, "x") == 4.0

    def test_metric_springing_into_existence_counts_from_zero(self):
        rows = [
            (0, {"other": 1.0}),
            (1, {"other": 1.0}),
            (2, {"other": 1.0, "drops": 3.0}),
        ]
        # One point only, but the 0 -> 3 appearance is an increase of 3.
        assert _counter_delta(rows, "drops") == 3.0

    def test_preexisting_total_is_a_baseline_not_a_burst(self):
        """The engine's first-ever row already carries the cumulative total
        (an engine attached to a long-lived process): no earlier rows, so no
        burst; only a later increase breaches."""
        engine = _engine(
            SLOSpec(name="z", kind="zero", metric="src.drops", long_window=2,
                    short_window=2, for_ticks=0)
        )
        state = _fed(engine)
        state["drops"] = 47.0
        assert engine.step(0) == []
        assert engine.step(1) == []
        assert _counter_delta(_rows(engine), "src.drops") == 0.0
        state["drops"] = 49.0
        assert [t["state"] for t in engine.step(2)] == ["pending", "firing"]
        assert _counter_delta(_rows(engine), "src.drops") == 2.0

    def test_is_last_minus_first_once_the_series_is_established(self):
        """Over the engine: 10 requests a tick, 2 of them failing from tick 5
        on, reads as exactly 20% bad over a three-sample window."""
        engine = _engine(
            SLOSpec(name="avail", kind="ratio", good="gw.ok", total="gw.all",
                    target=0.9, long_window=3, short_window=3)
        )
        state = _fed(engine, "gw")
        ok = all_ = 0.0
        for tick in range(8):
            state.update(ok=ok, all=all_)
            engine.step(tick)
            ok += 8.0 if tick >= 5 else 10.0
            all_ += 10.0
        (alert,) = engine.alerts()
        assert alert.burn_long == pytest.approx(0.2 / 0.1)
        assert alert.burn_short == alert.burn_long


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
        state = _fed(engine, "m")
        transitions = []
        for tick, value in enumerate(values):
            state["cov"] = value
            transitions.extend(engine.step(tick))
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
        state = _fed(engine)
        state["drops"] = 0
        for tick in range(4):
            engine.step(tick)
        state["drops"] = 1
        transitions = engine.step(4)
        assert [t["state"] for t in transitions] == ["pending", "firing"]
        assert engine.evaluations == 5

    def test_snapshot_is_strict_json(self):
        engine = _engine(*default_slos())
        engine.add_source("fleet", lambda: {"stream.s0.coverage": 0.1})
        engine.step(0)
        text = json.dumps(engine.snapshot(), allow_nan=False)
        snapshot = json.loads(text)
        assert snapshot["evaluations"] == 1
        assert snapshot["history"] == engine.stats
        assert {spec["name"] for spec in snapshot["specs"]} == {
            "availability", "predict_p99_latency", "stream_coverage", "zero_drop",
        }

    def test_transition_counts_are_monotonic(self):
        engine = _engine(
            SLOSpec(name="z", kind="zero", metric="src.d", long_window=4,
                    short_window=2, for_ticks=0)
        )
        state = _fed(engine)
        drops = 0
        for tick in range(12):
            if tick in (4, 8):
                drops += 1
            state["d"] = drops
            engine.step(tick)
        counts = engine.transition_counts()
        assert counts[("z", "firing")] == 2
        assert counts[("z", "resolved")] == 2
        history_len = len(engine.transitions(limit=100))
        assert history_len == sum(counts.values())

    def test_transition_history_is_bounded(self):
        engine = _engine(
            SLOSpec(name="z", kind="zero", metric="src.d", long_window=3,
                    short_window=2, for_ticks=0),
            transition_history=4,
        )
        state = _fed(engine)
        drops = 0
        for tick in range(40):
            if tick % 3 == 0:
                drops += 1
            state["d"] = drops
            engine.step(tick)
        assert len(engine.transitions(limit=1000)) == 4

    def test_transitions_limit_zero_returns_nothing(self):
        engine = _engine(
            SLOSpec(name="z", kind="zero", metric="src.d", long_window=3,
                    short_window=2, for_ticks=0)
        )
        state = _fed(engine)
        for tick in range(6):
            state["d"] = tick // 3
            engine.step(tick)
        assert len(engine.transitions()) == 3
        assert engine.transitions(limit=2) == engine.transitions()[-2:]
        assert engine.transitions(limit=0) == []
        assert engine.transitions(limit=-1) == []


class TestZeroKindFirstAppearance:
    def test_first_event_of_a_kind_breaches_immediately(self):
        """The event counter doesn't exist until the first event lands; the
        0 -> N appearance must read as a breach on that very tick."""
        engine = _engine(
            SLOSpec(name="z", kind="zero", metric="fleet.events.failed",
                    long_window=8, short_window=2, for_ticks=0)
        )
        state = _fed(engine, "fleet")
        for tick in range(6):
            state["tick"] = float(tick)
            assert engine.step(tick) == []
        state.update({"tick": 6.0, "events.failed": 3.0})
        transitions = engine.step(6)
        assert [t["state"] for t in transitions] == ["pending", "firing"]
        state["tick"] = 7.0
        assert [t["state"] for t in engine.step(7)] == ["resolved"]


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


@pytest.mark.parametrize("make_source", [fleet_source, gateway_source])
def test_source_of_a_dropped_owner_samples_nothing(make_source):
    class Owner:
        pass

    owner = Owner()
    source = make_source(owner)
    del owner
    assert source() == {}
