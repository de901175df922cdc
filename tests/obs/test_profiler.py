"""Phase profiler: aggregation, quantile rings, orderings, no-op discipline."""

import math

import pytest

from repro.obs.profiler import (
    PHASES,
    PhaseProfiler,
    configure_profiling,
    nearest_rank,
    phase,
    profiler,
    profiling_enabled,
    record_phase,
)


class TestDisabled:
    def test_phase_and_record_are_noops_while_disabled(self):
        assert not profiling_enabled()
        with phase("model_forward"):
            pass
        record_phase("model_forward", 1.0)
        assert profiler().snapshot() == {}

    def test_shared_noop_timer_is_one_instance(self):
        assert phase("a") is phase("b")


class TestNearestRank:
    """The one quantile rule of every ``/metrics`` summary."""

    @pytest.mark.parametrize(
        "samples, q, expected",
        [
            ([3.0, 1.0, 2.0], 0.0, 1.0),
            ([3.0, 1.0, 2.0], 1.0, 3.0),
            ([3.0, 1.0, 2.0], 0.5, 2.0),
            ([5.0], 0.99, 5.0),
            ([float(v) for v in range(10, 0, -1)], 0.9, 9.0),
        ],
        ids=["q0-is-min", "q1-is-max", "median-of-three", "one-sample", "exact-rank"],
    )
    def test_picks_the_ceil_q_n_th_smallest(self, samples, q, expected):
        assert nearest_rank(samples, q) == expected

    def test_no_samples_read_nan(self):
        assert math.isnan(nearest_rank([], 0.5))
        assert math.isnan(nearest_rank(iter(()), 0.99))

    @pytest.mark.parametrize("q", [-0.01, 1.5, float("nan")])
    def test_q_outside_the_unit_interval_is_rejected(self, q):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            nearest_rank([1.0, 2.0], q)


class TestAggregation:
    def test_record_accumulates_exact_count_and_total(self):
        prof = PhaseProfiler()
        prof.record("model_forward", 0.25)
        prof.record("model_forward", 0.75)
        entry = prof.snapshot()["model_forward"]
        assert entry["count"] == 2
        assert entry["total_s"] == 1.0
        assert entry["mean_ms"] == 500.0

    def test_aggregate_record_pushes_one_mean_sample(self):
        """count>1 folds a whole batch in exactly: total is the batch's sum,

        but the quantile ring gets the mean occurrence — one aggregate must
        not flood p50/p99 with identical points.
        """
        prof = PhaseProfiler()
        prof.record("batch_wait", 0.8, count=8)
        entry = prof.snapshot()["batch_wait"]
        assert entry["count"] == 8
        assert entry["total_s"] == 0.8
        assert entry["p50_ms"] == 100.0  # the mean occurrence, 0.1 s
        assert entry["p99_ms"] == 100.0  # ...and it is the only ring sample

    def test_quantiles_come_from_a_bounded_ring(self):
        prof = PhaseProfiler(sample_window=4)
        for seconds in (1.0, 1.0, 1.0, 0.001, 0.001, 0.002, 0.004):
            prof.record("calibrate", seconds)
        entry = prof.snapshot()["calibrate"]
        # The three 1.0 s outliers fell off the 4-deep ring.
        assert entry["p99_ms"] <= 4.0
        assert entry["count"] == 7  # ...but exact totals never forget
        assert math.isclose(entry["total_s"], 3.008)

    def test_snapshot_orders_known_phases_first_then_custom_sorted(self):
        prof = PhaseProfiler()
        prof.record("zeta_custom", 0.1)
        prof.record("checkpoint", 0.1)
        prof.record("window_build", 0.1)
        prof.record("alpha_custom", 0.1)
        assert list(prof.snapshot()) == [
            "window_build",
            "checkpoint",
            "alpha_custom",
            "zeta_custom",
        ]

    def test_canonical_phase_list_is_stable(self):
        assert PHASES[0] == "window_build"
        assert "model_forward" in PHASES and "checkpoint" in PHASES

    def test_reset_clears_everything(self):
        prof = PhaseProfiler()
        prof.record("drift_detect", 0.5)
        prof.reset()
        assert prof.snapshot() == {}


class TestModuleSurface:
    def test_phase_context_manager_times_into_the_global_profiler(self):
        configure_profiling(enabled=True, sample_window=128)
        with phase("spatial_agg"):
            pass
        with phase("spatial_agg"):
            pass
        entry = profiler().snapshot()["spatial_agg"]
        assert entry["count"] == 2
        assert entry["total_s"] >= 0.0

    def test_summary_and_top_phases_rank_by_total_cost(self):
        configure_profiling(enabled=True, sample_window=128)
        record_phase("model_forward", 3.0)
        record_phase("window_build", 1.0)
        record_phase("aci_update", 2.0)
        assert profiler().top_phases(2) == ["model_forward", "aci_update"]
        summary = profiler().summary()
        lines = summary.splitlines()
        assert lines[0].startswith("phase")
        assert lines[1].startswith("model_forward")  # costliest row first
        assert "50.0%" in lines[1]

    def test_empty_summary_has_a_placeholder(self):
        assert PhaseProfiler().summary() == "(no phases recorded)"


class TestWindowedDeltas:
    def test_first_delta_covers_lifetime_second_only_the_interval(self):
        prof = PhaseProfiler()
        prof.record("model_forward", 2.0)
        prof.record("model_forward", 2.0)
        first = prof.delta(key="scraper")
        assert first["model_forward"]["count"] == 2
        assert first["model_forward"]["total_s"] == 4.0
        assert first["model_forward"]["mean_ms"] == 2000.0
        prof.record("model_forward", 6.0)
        second = prof.delta(key="scraper")
        assert second["model_forward"]["count"] == 1
        assert second["model_forward"]["total_s"] == 6.0

    def test_idle_phases_are_omitted_from_the_interval(self):
        prof = PhaseProfiler()
        prof.record("model_forward", 1.0)
        prof.record("aci_update", 1.0)
        prof.delta(key="k")
        prof.record("aci_update", 1.0)
        interval = prof.delta(key="k")
        assert list(interval) == ["aci_update"]

    def test_keys_hold_independent_baselines(self):
        prof = PhaseProfiler()
        prof.record("window_build", 1.0)
        assert prof.delta(key="a")["window_build"]["count"] == 1
        prof.record("window_build", 1.0)
        # "b" never read before: sees lifetime; "a" sees just the new sample.
        assert prof.delta(key="b")["window_build"]["count"] == 2
        assert prof.delta(key="a")["window_build"]["count"] == 1

    def test_least_recent_key_is_evicted_at_the_cap(self):
        prof = PhaseProfiler()
        prof.record("checkpoint", 1.0)
        prof.delta(key="victim")
        for i in range(PhaseProfiler.MAX_DELTA_KEYS):
            prof.delta(key=f"k{i}")
        # victim's baseline was forgotten -> next read starts over (lifetime).
        assert prof.delta(key="victim")["checkpoint"]["count"] == 1

    def test_reset_clears_baselines(self):
        prof = PhaseProfiler()
        prof.record("drift_detect", 1.0)
        prof.delta(key="k")
        prof.reset()
        prof.record("drift_detect", 1.0)
        assert prof.delta(key="k")["drift_detect"]["count"] == 1

    def test_slo_eval_is_a_canonical_phase(self):
        assert "slo_eval" in PHASES
