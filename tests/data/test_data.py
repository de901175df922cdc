"""Tests for the synthetic traffic generator, PEMS registry, datasets, scalers and loader."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import data as data_pkg
from repro.data import (
    DataLoader,
    SlidingWindowDataset,
    StandardScaler,
    StreamScenarioEvent,
    StreamingTrafficFeed,
    SyntheticTrafficConfig,
    TrafficData,
    generate_traffic,
    load_pems,
    train_val_test_split,
)
from repro.data.pems import DATASET_SPECS
from repro.graph import grid_network, ring_network


def _small_traffic(num_steps=600, seed=0):
    network = grid_network(3, 4)
    values = generate_traffic(network, num_steps, seed=seed)
    return TrafficData(name="test", values=values, network=network)


class TestSyntheticGenerator:
    def test_shape_and_nonnegative(self):
        network = ring_network(8)
        values = generate_traffic(network, 500, seed=1)
        assert values.shape == (500, 8)
        assert np.all(values >= 0.0)

    def test_reproducible(self):
        network = ring_network(8)
        a = generate_traffic(network, 300, seed=5)
        b = generate_traffic(network, 300, seed=5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        network = ring_network(8)
        a = generate_traffic(network, 300, seed=1)
        b = generate_traffic(network, 300, seed=2)
        assert not np.allclose(a, b)

    def test_daily_seasonality_peaks(self):
        """Rush-hour flow should clearly exceed night-time flow."""
        config = SyntheticTrafficConfig(dropout_probability=0.0, incident_rate_per_day_per_node=0.0)
        network = ring_network(6)
        values = generate_traffic(network, 288 * 7, config=config, seed=0)
        steps_per_day = config.steps_per_day
        hour = lambda h: int(h * steps_per_day / 24)
        day_mask = np.zeros(values.shape[0], dtype=bool)
        night_mask = np.zeros(values.shape[0], dtype=bool)
        for day in range(7):
            day_mask[day * steps_per_day + hour(7) : day * steps_per_day + hour(9)] = True
            night_mask[day * steps_per_day + hour(2) : day * steps_per_day + hour(4)] = True
        assert values[day_mask].mean() > 2.0 * values[night_mask].mean()

    def test_weekend_attenuation(self):
        config = SyntheticTrafficConfig(dropout_probability=0.0, incident_rate_per_day_per_node=0.0)
        network = ring_network(6)
        values = generate_traffic(network, 288 * 14, config=config, seed=3)
        day_means = values.reshape(14, 288, 6).mean(axis=(1, 2))
        weekday = day_means[[0, 1, 2, 3, 4, 7, 8, 9, 10, 11]].mean()
        weekend = day_means[[5, 6, 12, 13]].mean()
        assert weekend < weekday

    def test_spatial_correlation_decays_with_distance(self):
        """Adjacent sensors should correlate more strongly than distant ones."""
        config = SyntheticTrafficConfig(dropout_probability=0.0, incident_rate_per_day_per_node=0.0)
        network = ring_network(20)
        values = generate_traffic(network, 288 * 10, config=config, seed=2)
        detrended = values - values.mean(axis=0)
        corr = np.corrcoef(detrended.T)
        near = np.mean([corr[i, (i + 1) % 20] for i in range(20)])
        far = np.mean([corr[i, (i + 10) % 20] for i in range(20)])
        assert near > far

    def test_heteroscedastic_noise(self):
        """Residual variance should grow with the flow level."""
        config = SyntheticTrafficConfig(dropout_probability=0.0, incident_rate_per_day_per_node=0.0)
        network = ring_network(6)
        values = generate_traffic(network, 288 * 20, config=config, seed=4)
        node = values[:, 0].reshape(20, 288)
        profile = node.mean(axis=0)
        residuals = node - profile
        high = profile > np.quantile(profile, 0.8)
        low = profile < np.quantile(profile, 0.2)
        assert residuals[:, high].std() > residuals[:, low].std()

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            generate_traffic(ring_network(5), 0)


class TestPemsRegistry:
    def test_registry_matches_paper_table1(self):
        assert DATASET_SPECS["PEMS03"].num_nodes == 358
        assert DATASET_SPECS["PEMS03"].num_edges == 547
        assert DATASET_SPECS["PEMS03"].num_steps == 26_208
        assert DATASET_SPECS["PEMS04"].num_nodes == 307
        assert DATASET_SPECS["PEMS04"].num_edges == 340
        assert DATASET_SPECS["PEMS04"].num_steps == 16_992
        assert DATASET_SPECS["PEMS07"].num_nodes == 883
        assert DATASET_SPECS["PEMS07"].num_edges == 866
        assert DATASET_SPECS["PEMS07"].num_steps == 28_224
        assert DATASET_SPECS["PEMS08"].num_nodes == 170
        assert DATASET_SPECS["PEMS08"].num_edges == 295
        assert DATASET_SPECS["PEMS08"].num_steps == 17_856

    def test_available_datasets(self):
        assert data_pkg.available_datasets() == ["PEMS03", "PEMS04", "PEMS07", "PEMS08"]

    def test_load_tiny(self):
        traffic = load_pems("PEMS08", size="tiny")
        assert traffic.num_nodes >= 8
        assert traffic.num_steps >= 576
        assert traffic.network.num_edges >= traffic.num_nodes - 1

    def test_load_case_insensitive(self):
        traffic = load_pems("pems08", size="tiny")
        assert "PEMS08" in traffic.name

    def test_load_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_pems("PEMS99")

    def test_load_unknown_size(self):
        with pytest.raises(ValueError):
            load_pems("PEMS08", size="gigantic")

    def test_scaled_spec_validation(self):
        with pytest.raises(ValueError):
            DATASET_SPECS["PEMS08"].scaled(0.0, 0.5)

    def test_load_reproducible(self):
        a = load_pems("PEMS08", size="tiny")
        b = load_pems("PEMS08", size="tiny")
        assert np.allclose(a.values, b.values)


class TestTrafficDataAndSplits:
    def test_traffic_data_validation(self):
        network = ring_network(5)
        with pytest.raises(ValueError):
            TrafficData(name="bad", values=np.zeros((10, 4)), network=network)
        with pytest.raises(ValueError):
            TrafficData(name="bad", values=np.zeros(10), network=network)

    def test_summary(self):
        traffic = _small_traffic()
        summary = traffic.summary()
        assert summary["num_nodes"] == 12
        assert summary["num_steps"] == 600
        assert summary["mean_flow"] > 0

    def test_split_ratios(self):
        traffic = _small_traffic(num_steps=1000)
        train, val, test = train_val_test_split(traffic)
        assert train.num_steps == 600
        assert val.num_steps == 200
        assert test.num_steps == 200

    def test_split_is_chronological(self):
        traffic = _small_traffic(num_steps=500)
        train, val, test = train_val_test_split(traffic)
        assert np.allclose(np.concatenate([train.values, val.values, test.values]), traffic.values)

    def test_split_invalid_ratios(self):
        with pytest.raises(ValueError):
            train_val_test_split(_small_traffic(), ratios=(0.5, 0.5, 0.5))


class TestSlidingWindow:
    def test_sample_shapes(self):
        dataset = SlidingWindowDataset(_small_traffic(), history=12, horizon=12)
        x, y = dataset[0]
        assert x.shape == (12, 12)
        assert y.shape == (12, 12)

    def test_length(self):
        traffic = _small_traffic(num_steps=100)
        dataset = SlidingWindowDataset(traffic, history=12, horizon=12)
        assert len(dataset) == 100 - 12 - 12 + 1

    def test_windows_are_consecutive(self):
        traffic = _small_traffic(num_steps=100)
        dataset = SlidingWindowDataset(traffic, history=4, horizon=2)
        x, y = dataset[10]
        assert np.allclose(x, traffic.values[10:14])
        assert np.allclose(y, traffic.values[14:16])

    def test_index_out_of_range(self):
        dataset = SlidingWindowDataset(_small_traffic(num_steps=50), history=12, horizon=12)
        with pytest.raises(IndexError):
            dataset[len(dataset)]

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            SlidingWindowDataset(_small_traffic(num_steps=20), history=12, horizon=12)

    def test_arrays(self):
        dataset = SlidingWindowDataset(_small_traffic(num_steps=60), history=6, horizon=3)
        inputs, targets = dataset.arrays()
        assert inputs.shape == (len(dataset), 6, 12)
        assert targets.shape == (len(dataset), 3, 12)


class TestScalers:
    def test_standard_scaler_statistics(self):
        rng = np.random.default_rng(0)
        values = rng.normal(loc=50.0, scale=10.0, size=(1000, 3))
        scaled = StandardScaler().fit(values).transform(values)
        assert abs(scaled.mean()) < 1e-9
        assert abs(scaled.std() - 1.0) < 1e-9

    def test_standard_scaler_roundtrip(self):
        values = np.random.default_rng(1).normal(loc=100.0, scale=30.0, size=(200, 4))
        scaler = StandardScaler().fit(values)
        assert np.allclose(scaler.inverse_transform(scaler.transform(values)), values)

    def test_standard_scaler_std_and_var_inversion(self):
        values = np.random.default_rng(2).normal(loc=10.0, scale=4.0, size=1000)
        scaler = StandardScaler().fit(values)
        assert np.isclose(np.sqrt(scaler.inverse_transform_var(np.array(1.0))), scaler.std_)
        assert np.isclose(scaler.inverse_transform_var(np.array(1.0)), scaler.std_ ** 2)

    def test_standard_scaler_unfitted(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones(3))

    def test_standard_scaler_constant_input(self):
        scaler = StandardScaler().fit(np.full(10, 7.0))
        assert scaler.std_ == 1.0

    @given(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=2, max_size=50)
    )
    @settings(max_examples=30, deadline=None)
    def test_standard_scaler_roundtrip_property(self, raw):
        values = np.asarray(raw)
        scaler = StandardScaler().fit(values)
        assert np.allclose(scaler.inverse_transform(scaler.transform(values)), values, atol=1e-6)


class TestDataLoader:
    def test_batch_shapes(self):
        dataset = SlidingWindowDataset(_small_traffic(num_steps=200), history=12, horizon=12)
        loader = DataLoader(dataset, batch_size=16, rng=np.random.default_rng(0))
        x, y = next(iter(loader))
        assert x.shape == (16, 12, 12)
        assert y.shape == (16, 12, 12)

    def test_len_with_and_without_drop_last(self):
        dataset = SlidingWindowDataset(_small_traffic(num_steps=100), history=12, horizon=12)
        n = len(dataset)
        keep = DataLoader(dataset, batch_size=16, drop_last=False)
        drop = DataLoader(dataset, batch_size=16, drop_last=True)
        assert len(keep) == (n + 15) // 16
        assert len(drop) == n // 16

    def test_covers_all_samples(self):
        dataset = SlidingWindowDataset(_small_traffic(num_steps=80), history=6, horizon=6)
        loader = DataLoader(dataset, batch_size=10, shuffle=False)
        total = sum(x.shape[0] for x, _ in loader)
        assert total == len(dataset)

    def test_shuffle_changes_order(self):
        dataset = SlidingWindowDataset(_small_traffic(num_steps=120), history=6, horizon=6)
        ordered = DataLoader(dataset, batch_size=len(dataset), shuffle=False)
        shuffled = DataLoader(dataset, batch_size=len(dataset), shuffle=True, rng=np.random.default_rng(0))
        x_ordered, _ = next(iter(ordered))
        x_shuffled, _ = next(iter(shuffled))
        assert not np.allclose(x_ordered, x_shuffled)

    def test_invalid_batch_size(self):
        dataset = SlidingWindowDataset(_small_traffic(num_steps=60), history=6, horizon=6)
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)


class TestStreamingTrafficFeed:
    def _network(self):
        return grid_network(3, 3)

    def test_iteration_yields_every_step(self):
        feed = StreamingTrafficFeed(self._network(), num_steps=50, seed=0)
        rows = list(feed)
        assert len(rows) == len(feed) == 50
        assert all(row.shape == (feed.num_nodes,) for row in rows)
        np.testing.assert_array_equal(np.stack(rows), feed.values)

    def test_deterministic_for_fixed_seed(self):
        a = StreamingTrafficFeed(self._network(), num_steps=80, seed=3)
        b = StreamingTrafficFeed(self._network(), num_steps=80, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.clean, b.clean)

    def test_clean_signal_is_noise_free_center(self):
        feed = StreamingTrafficFeed(self._network(), num_steps=400, seed=1)
        residual = feed.values - feed.clean
        # Residuals should be on the noise-sigma scale, not the flow scale.
        assert np.nanstd(residual) < 0.5 * feed.clean.mean()
        assert np.all(feed.noise_sigma > 0.0)

    def test_regime_shift_scales_noise_from_start_step(self):
        feed = StreamingTrafficFeed(
            self._network(),
            num_steps=200,
            seed=2,
            events=[StreamScenarioEvent(kind="regime_shift", start=100, noise_scale=3.0)],
        )
        assert np.allclose(feed.noise_sigma[100:] / feed.noise_sigma[:100], 3.0) is False
        # Per-entry sigma after the shift is exactly 3x what the same clean
        # level would produce before it.
        config = feed.config
        base = config.noise_floor + config.noise_fraction * feed.clean
        np.testing.assert_allclose(feed.noise_sigma[:100], base[:100])
        np.testing.assert_allclose(feed.noise_sigma[100:], 3.0 * base[100:])

    def test_regime_shift_flow_scale(self):
        quiet = StreamingTrafficFeed(self._network(), num_steps=120, seed=5)
        shifted = StreamingTrafficFeed(
            self._network(),
            num_steps=120,
            seed=5,
            events=[StreamScenarioEvent(kind="regime_shift", start=60, flow_scale=1.5)],
        )
        np.testing.assert_allclose(shifted.clean[:60], quiet.clean[:60])
        np.testing.assert_allclose(shifted.clean[60:], 1.5 * quiet.clean[60:])

    def test_dropout_burst_emits_nan_rows(self):
        feed = StreamingTrafficFeed(
            self._network(),
            num_steps=100,
            seed=4,
            events=[
                StreamScenarioEvent(
                    kind="dropout_burst", start=40, duration=20, node_fraction=0.5
                )
            ],
        )
        burst = feed.values[40:60]
        assert np.isnan(burst).any()
        assert not np.isnan(feed.values[:40]).any()
        assert not np.isnan(feed.values[60:]).any()
        # The same sensors stay silent for the whole burst.
        silent = np.isnan(burst).all(axis=0)
        np.testing.assert_array_equal(np.isnan(burst), np.tile(silent, (20, 1)))

    def test_dropout_burst_as_zeros_when_requested(self):
        feed = StreamingTrafficFeed(
            self._network(),
            num_steps=60,
            seed=4,
            events=[StreamScenarioEvent(kind="dropout_burst", start=10, duration=5)],
            nan_dropouts=False,
        )
        assert not np.isnan(feed.values).any()
        assert (feed.values[10:15] == 0.0).any()

    def test_incident_storm_depresses_flow(self):
        quiet = StreamingTrafficFeed(self._network(), num_steps=300, seed=6)
        stormy = StreamingTrafficFeed.scenario(
            self._network(), "incident_storm", num_steps=300, seed=6, rate=0.5
        )
        start, stop = 100, 150
        assert stormy.clean[start:stop].mean() < quiet.clean[start:stop].mean()

    def test_scenario_names(self):
        for name in ("regime_shift", "incident_storm", "dropout_burst"):
            feed = StreamingTrafficFeed.scenario(self._network(), name, num_steps=60, seed=0)
            assert len(feed) == 60
        with pytest.raises(ValueError):
            StreamingTrafficFeed.scenario(self._network(), "unknown")

    def test_scenario_accepts_any_event_field_override(self):
        # A *temporary* regime shift: duration is a valid override even
        # though the default regime_shift event runs to the end.
        feed = StreamingTrafficFeed.scenario(
            self._network(), "regime_shift", num_steps=90, seed=0,
            start=30, duration=20, noise_scale=3.0,
        )
        base = feed.config.noise_floor + feed.config.noise_fraction * feed.clean
        np.testing.assert_allclose(feed.noise_sigma[:30], base[:30])
        np.testing.assert_allclose(feed.noise_sigma[30:50], 3.0 * base[30:50])
        np.testing.assert_allclose(feed.noise_sigma[50:], base[50:])
        # Feed-constructor keywords still pass through alongside.
        feed = StreamingTrafficFeed.scenario(
            self._network(), "dropout_burst", num_steps=60, seed=0,
            node_fraction=0.5, nan_dropouts=False,
        )
        assert not np.isnan(feed.values).any()

    def test_event_validation(self):
        with pytest.raises(ValueError):
            StreamScenarioEvent(kind="nope", start=0)
        with pytest.raises(ValueError):
            StreamScenarioEvent(kind="regime_shift", start=-1)
        with pytest.raises(ValueError):
            StreamingTrafficFeed(self._network(), num_steps=0)
