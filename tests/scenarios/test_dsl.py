"""Scenario DSL: legacy bit-identity, JSON round trips, extended primitives."""

import numpy as np
import pytest

from repro.data import StreamingTrafficFeed
from repro.data.synthetic import SyntheticTrafficConfig
from repro.graph import grid_network
from repro.scenarios import ScenarioSpec, load_scenario

STEPS = 300
SEED = 11

#: The primitive ``StreamingTrafficFeed.scenario`` hard-codes for each
#: canonical feed at ``STEPS`` steps, written out as DSL data.
CANONICAL = {
    "regime_shift": {"kind": "regime_shift", "start": STEPS // 2, "noise_scale": 2.5},
    "incident_storm": {
        "kind": "incident_storm", "start": STEPS // 3, "duration": STEPS // 6,
        "rate": 0.3, "severity": 0.6,
    },
    "dropout_burst": {
        "kind": "dropout_burst", "start": STEPS // 2, "duration": STEPS // 12,
        "node_fraction": 0.4,
    },
}


def canonical_spec(name, seed=SEED, **overrides):
    return ScenarioSpec(
        name=name, num_steps=STEPS, seed=seed,
        primitives=({**CANONICAL[name], **overrides},),
    )


@pytest.fixture(scope="module")
def network():
    return grid_network(2, 3)


class TestLegacyBitIdentity:
    """The acceptance criterion: DSL feeds == hand-coded scripted feeds."""

    @pytest.mark.parametrize("name", ["regime_shift", "incident_storm", "dropout_burst"])
    def test_canonical_scenario_is_bit_identical(self, network, name):
        built = canonical_spec(name).build(network)
        reference = StreamingTrafficFeed.scenario(
            network, name, num_steps=STEPS, seed=SEED
        )
        np.testing.assert_array_equal(built.values, reference.values)
        np.testing.assert_array_equal(built.clean, reference.clean)
        np.testing.assert_array_equal(built.noise_sigma, reference.noise_sigma)
        np.testing.assert_array_equal(built.dropout_mask, reference.dropout_mask)

    def test_overrides_match_the_classmethod(self, network):
        built = canonical_spec("regime_shift", seed=3, start=90, noise_scale=4.0).build(network)
        reference = StreamingTrafficFeed.scenario(
            network, "regime_shift", num_steps=STEPS, seed=3, start=90, noise_scale=4.0
        )
        np.testing.assert_array_equal(built.values, reference.values)

    def test_multiple_legacy_primitives_compose_in_order(self, network):
        spec = ScenarioSpec(
            name="double",
            num_steps=STEPS,
            seed=5,
            primitives=(
                {"kind": "regime_shift", "start": 100, "noise_scale": 2.0},
                {"kind": "dropout_burst", "start": 200, "duration": 20,
                 "node_fraction": 0.5},
            ),
        )
        from repro.data import StreamScenarioEvent

        reference = StreamingTrafficFeed(
            network, STEPS, seed=5,
            events=[
                StreamScenarioEvent(kind="regime_shift", start=100, noise_scale=2.0),
                StreamScenarioEvent(
                    kind="dropout_burst", start=200, duration=20, node_fraction=0.5
                ),
            ],
        )
        np.testing.assert_array_equal(spec.build(network).values, reference.values)

    def test_extended_primitives_do_not_perturb_the_legacy_stream(self, network):
        """Appending an extended primitive leaves untouched entries identical."""
        base = canonical_spec("regime_shift")
        mixed = ScenarioSpec(
            name="mixed",
            num_steps=STEPS,
            seed=SEED,
            primitives=base.primitives
            + ({"kind": "stuck_sensor", "start": 50, "duration": 30, "nodes": [0]},),
        )
        plain, decorated = base.build(network), mixed.build(network)
        untouched = np.ones_like(plain.values, dtype=bool)
        untouched[50:80, 0] = False
        np.testing.assert_array_equal(
            decorated.values[untouched], plain.values[untouched]
        )


class TestSerialization:
    def test_json_file_round_trip(self, network, tmp_path):
        spec = ScenarioSpec(
            name="mix",
            num_steps=STEPS,
            seed=7,
            primitives=(
                {"kind": "regime_shift", "start": 150, "noise_scale": 2.5},
                {"kind": "holiday_cycle", "every_days": 3, "attenuation": 0.5},
                {"kind": "cold_start", "start": 40, "nodes": [1, 4]},
            ),
            config={"peak_amplitude": 0.0, "weekend_attenuation": 1.0},
        )
        path = spec.save(tmp_path / "mix.json")
        loaded = load_scenario(path)
        assert loaded == spec
        np.testing.assert_array_equal(
            loaded.build(network).values, spec.build(network).values
        )

    def test_handwritten_json_keeps_null_duration_and_primitive_order(
        self, network, tmp_path
    ):
        path = tmp_path / "hand.JSON"
        path.write_text(
            '{"name": "n", "num_steps": 100, "primitives": ['
            '{"kind": "stuck_sensor", "start": 10, "duration": null, "nodes": [0]},'
            '{"kind": "adversarial_spike", "rate": 0.2}]}'
        )
        spec = load_scenario(path)
        assert [p["kind"] for p in spec.primitives] == ["stuck_sensor", "adversarial_spike"]
        assert spec.primitives[0]["duration"] is None
        # A null duration freezes the sensor until the end of the stream.
        values = ScenarioSpec(
            name="n", num_steps=100, primitives=spec.primitives[:1]
        ).build(network).values
        assert np.isfinite(values[10, 0])
        assert np.all(values[10:, 0] == values[10, 0])

    def test_unknown_kind_and_param_rejected(self):
        with pytest.raises(ValueError, match="unknown primitive kind"):
            ScenarioSpec(name="bad", primitives=({"kind": "earthquake"},))
        with pytest.raises(ValueError, match="does not accept"):
            ScenarioSpec(
                name="bad", primitives=({"kind": "regime_shift", "rate": 1.0},)
            )
        for name in ("scenario.yaml", "scenario.ini"):
            with pytest.raises(ValueError, match="unsupported scenario file type"):
                load_scenario(name)


class TestExtendedPrimitives:
    FLAT = {"peak_amplitude": 0.0, "weekend_attenuation": 1.0,
            "dropout_probability": 0.0, "noise_fraction": 0.01}

    def _build(self, network, *primitives, steps=STEPS, seed=2):
        return ScenarioSpec(
            name="t", num_steps=steps, seed=seed,
            primitives=tuple(primitives), config=self.FLAT,
        ).build(network)

    def test_holiday_cycle_attenuates_whole_days(self, network):
        feed = self._build(
            network,
            {"kind": "holiday_cycle", "every_days": 2, "attenuation": 0.5},
            steps=4 * 288,
        )
        plain = self._build(network, steps=4 * 288)
        spd = feed.config.steps_per_day
        # days 1 and 3 (0-indexed) are holidays at half flow
        np.testing.assert_allclose(feed.clean[spd : 2 * spd], 0.5 * plain.clean[spd : 2 * spd])
        np.testing.assert_array_equal(feed.clean[:spd], plain.clean[:spd])

    def test_holiday_seasonal_component_modulates_flow(self, network):
        feed = self._build(
            network,
            {"kind": "holiday_cycle", "every_days": 0, "season_period_days": 2,
             "season_amplitude": 0.25},
            steps=2 * 288,
        )
        plain = self._build(network, steps=2 * 288)
        ratio = feed.clean[feed.clean > 0] / plain.clean[plain.clean > 0]
        assert ratio.max() > 1.2 and ratio.min() < 0.8

    def test_clock_skew_shifts_observations_not_truth(self, network):
        feed = self._build(
            network,
            {"kind": "clock_skew", "start": 50, "duration": 100,
             "nodes": [2], "max_skew_steps": 3},
        )
        plain = self._build(network)
        np.testing.assert_array_equal(feed.clean, plain.clean)
        skews = [
            k for k in range(1, 4)
            if np.array_equal(feed.values[50 + k : 150, 2], plain.values[50 : 150 - k, 2])
        ]
        assert len(skews) == 1  # exactly one consistent per-node lag
        np.testing.assert_array_equal(feed.values[150:, 2], plain.values[150:, 2])

    def test_stuck_sensor_freezes_last_reading(self, network):
        feed = self._build(
            network, {"kind": "stuck_sensor", "start": 100, "duration": 50, "nodes": [1]}
        )
        assert (feed.values[100:150, 1] == feed.values[99, 1]).all()
        plain = self._build(network)
        np.testing.assert_array_equal(feed.values[150:, 1], plain.values[150:, 1])

    def test_adversarial_spikes_are_sparse_and_large(self, network):
        feed = self._build(
            network,
            {"kind": "adversarial_spike", "start": 0, "rate": 0.2, "magnitude": 12.0},
        )
        plain = self._build(network)
        changed = feed.values != plain.values
        assert 0 < changed.sum() < 0.2 * feed.values.size
        assert (feed.values[changed] > plain.values[changed]).all()

    def test_cold_start_darkens_nodes_until_start(self, network):
        feed = self._build(network, {"kind": "cold_start", "start": 80, "nodes": [0, 5]})
        assert np.isnan(feed.values[:80, [0, 5]]).all()
        assert np.isfinite(feed.values[80:, 0]).any()
        zero_feed = ScenarioSpec(
            name="z", num_steps=STEPS, seed=2, nan_dropouts=False,
            primitives=({"kind": "cold_start", "start": 80, "nodes": [0]},),
            config=self.FLAT,
        ).build(network)
        assert (zero_feed.values[:80, 0] == 0.0).all()

    def test_cascade_staggers_incidents_across_node_groups(self, network):
        feed = self._build(
            network,
            {"kind": "cascade", "start": 60, "stagger": 100, "duration": 50,
             "groups": 2, "rate": 0.6, "severity": 0.8},
        )
        plain = self._build(network)
        half = feed.num_nodes // 2
        dip = plain.clean - feed.clean
        # group 0's burst lives in [60, 110+incident tail), group 1's in
        # [160, 210+tail); neither group dips inside the other's window.
        assert dip[60:110, :half].max() > 0
        assert dip[160:210, half:].max() > 0
        assert dip[:60].max() == 0
        assert dip[60:110, half:].max() == 0

    def test_extended_primitives_are_reproducible(self, network):
        spec = ScenarioSpec(
            name="r", num_steps=STEPS, seed=9,
            primitives=(
                {"kind": "clock_skew", "start": 10, "node_fraction": 0.5},
                {"kind": "adversarial_spike", "rate": 0.3},
            ),
        )
        np.testing.assert_array_equal(
            spec.build(network).values, spec.build(network).values
        )
