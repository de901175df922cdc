"""MetricsHistory: bounded ring, source polling, window queries, NaN hygiene."""

import math

import pytest

from repro.obs.timeseries import MetricsHistory


class TestSampling:
    def test_sources_are_polled_with_name_prefixes(self):
        history = MetricsHistory()
        history.add_source("server", lambda: {"requests": 3, "depth": 1.5})
        history.add_source("fleet", lambda: {"tick": 7})
        values = history.sample(0)
        assert values == {"server.requests": 3.0, "server.depth": 1.5, "fleet.tick": 7.0}
        assert history.series("fleet.tick") == [(0, 7.0)]

    def test_reregistering_a_source_replaces_it(self):
        history = MetricsHistory()
        history.add_source("s", lambda: {"x": 1})
        history.add_source("s", lambda: {"x": 2})
        assert history.sample(0) == {"s.x": 2.0}
        assert history.sources() == ["s"]

    def test_raising_source_is_counted_not_fatal(self):
        history = MetricsHistory()

        def broken():
            raise RuntimeError("stats backend down")

        history.add_source("bad", broken)
        history.add_source("good", lambda: {"x": 1})
        assert history.sample(0) == {"good.x": 1.0}
        assert history.stats["source_errors"] == 1

    def test_non_finite_and_non_numeric_values_dropped_at_the_door(self):
        history = MetricsHistory()
        history.add_source(
            "m",
            lambda: {
                "nan": float("nan"),
                "inf": float("inf"),
                "text": "whee",
                "ok": 0.25,
            },
        )
        assert history.sample(0) == {"m.ok": 0.25}
        # record() applies the same hygiene to externally-built rows.
        history.record(1, {"a": float("nan"), "b": 2})
        assert history.values("b") == [2.0]
        assert history.values("a") == []

    def test_capacity_bounds_the_ring(self):
        history = MetricsHistory(capacity=4)
        for tick in range(10):
            history.record(tick, {"x": tick})
        assert len(history) == 4
        assert history.series("x") == [(6, 6.0), (7, 7.0), (8, 8.0), (9, 9.0)]
        assert history.stats["last_tick"] == 9

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsHistory(capacity=0)
        with pytest.raises(TypeError):
            MetricsHistory().add_source("x", 42)


class TestQueries:
    def _filled(self):
        history = MetricsHistory()
        for tick in range(6):
            history.record(tick, {"counter": 10 * tick, "gauge": 0.5})
        return history

    def test_counter_delta_is_last_minus_first_over_window(self):
        history = self._filled()
        assert history.counter_delta("counter") == 50.0
        assert history.counter_delta("counter", window=3) == 20.0
        assert history.counter_delta("counter", window=1) == 0.0  # < 2 points
        assert history.counter_delta("missing") == 0.0

    def test_values_and_names_read_the_window(self):
        history = self._filled()
        assert history.values("gauge", window=2) == [0.5, 0.5]
        assert history.names() == ["counter", "gauge"]
        history.clear()
        assert history.names() == []
        assert history.series("gauge") == []

    def test_metric_absent_from_some_rows_skips_those_rows(self):
        history = MetricsHistory()
        history.record(0, {"x": 1.0})
        history.record(1, {})  # a warmup NaN was dropped here
        history.record(2, {"x": 5.0})
        assert history.series("x") == [(0, 1.0), (2, 5.0)]
        assert history.counter_delta("x") == 4.0


class TestCounterDelta:
    def test_metric_springing_into_existence_counts_from_zero(self):
        history = MetricsHistory()
        history.record(0, {"other": 1.0})
        history.record(1, {"other": 1.0})
        history.record(2, {"other": 1.0, "drops": 3.0})
        # One point only, but the 0 -> 3 appearance is an increase of 3.
        assert history.counter_delta("drops", window=3) == 3.0

    def test_preexisting_total_is_a_baseline_not_a_burst(self):
        history = MetricsHistory()
        # First-ever row already carries the cumulative total (engine
        # attached to a long-lived process): no earlier rows, no burst.
        history.record(0, {"drops": 47.0})
        history.record(1, {"drops": 47.0})
        assert history.counter_delta("drops", window=2) == 0.0
        history.record(2, {"drops": 49.0})
        assert history.counter_delta("drops", window=2) == 2.0

    def test_is_last_minus_first_once_the_series_is_established(self):
        history = MetricsHistory()
        for tick in range(5):
            history.record(tick, {"c": 10.0 * tick})
        assert history.counter_delta("c", window=3) == 20.0
        assert history.counter_delta("missing") == 0.0
