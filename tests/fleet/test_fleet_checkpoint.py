"""Whole-fleet checkpoints: bit-identical per-stream state round trips."""

import numpy as np
import pytest

from repro.data import StreamingTrafficFeed
from repro.graph import grid_network
from repro.serving import InferenceServer
from repro.streaming import CoverageBreachDetector, PersistenceForecaster
from repro.fleet import StreamFleet
from repro.fleet.checkpoint import FLEET_FORMAT_VERSION

HISTORY, HORIZON = 8, 4
STEPS = 50
N = 6


def _server():
    model = PersistenceForecaster(horizon=HORIZON, sigma=20.0)
    return InferenceServer(model.predict, model_version="base", max_batch_size=64)


def _detectors():
    return [CoverageBreachDetector(nominal=0.95, tolerance=0.05, warmup=10, patience=5)]


def _run_fleet(server):
    network = grid_network(2, 2)
    fleet = StreamFleet(
        server, HISTORY, HORIZON,
        aci={"window": 300, "gamma": 0.02},
        detector_factory=_detectors,
    )
    feeds = {}
    for i in range(N):
        name = f"c{i}"
        fleet.add_stream(name, region="east" if i < 3 else "west", node=i % 4)
        feeds[name] = StreamingTrafficFeed(network, num_steps=STEPS, seed=i)
    fleet.run({name: iter(feed) for name, feed in feeds.items()})
    return fleet


class TestFleetCheckpoint:
    def test_round_trip_is_bit_identical(self, tmp_path):
        with _server() as server:
            fleet = _run_fleet(server)
            fleet.save(tmp_path / "ckpt")
            with _server() as server2:
                restored = StreamFleet.load(tmp_path / "ckpt", server2, detector_factory=_detectors)
                assert len(restored) == len(fleet)
                assert restored._tick == fleet._tick
                for name, stream in fleet.streams.items():
                    twin = restored[name]
                    assert twin.region == stream.region
                    assert twin.node == stream.node
                    assert twin.key == stream.key
                    original = stream.core.get_state()
                    copy = twin.core.get_state()
                    assert original["meta"] == copy["meta"]
                    assert set(original["arrays"]) == set(copy["arrays"])
                    for key, array in original["arrays"].items():
                        np.testing.assert_array_equal(
                            array, copy["arrays"][key], err_msg=f"{name}:{key}"
                        )

    def test_restored_fleet_resumes_with_warm_metrics(self, tmp_path):
        """A restarted fleet continues the stream rather than re-warming."""
        network = grid_network(2, 2)
        with _server() as server:
            fleet = _run_fleet(server)
            before = {
                name: stream.core.monitor.snapshot()
                for name, stream in fleet.streams.items()
            }
            fleet.save(tmp_path / "ckpt")
        with _server() as server2:
            restored = StreamFleet.load(tmp_path / "ckpt", server2, detector_factory=_detectors)
            for name, snapshot in before.items():
                assert restored[name].core.monitor.snapshot() == snapshot
            # the restored fleet keeps ticking (history re-warms, state warm)
            feed = StreamingTrafficFeed(network, num_steps=HISTORY + 2, seed=99)
            rows = list(feed)
            for row in rows:
                result = restored.tick({name: row for name in restored.streams})
            for name in restored.streams:
                assert restored[name].core.step == STEPS + len(rows)
                assert result[name].prediction is not None

    def test_event_logs_round_trip(self, tmp_path):
        with _server() as server:
            fleet = _run_fleet(server)
            fleet.save(tmp_path / "ckpt")
            with _server() as server2:
                restored = StreamFleet.load(tmp_path / "ckpt", server2, detector_factory=_detectors)
                assert restored.event_log.to_records() == fleet.event_log.to_records()
                for name, stream in fleet.streams.items():
                    assert (
                        restored[name].core.event_log.to_records()
                        == stream.core.event_log.to_records()
                    )

    def test_refit_window_survives_the_round_trip(self, tmp_path):
        from repro.streaming import StreamCore

        core = StreamCore(4, 2, refit_window=1000)
        for step in range(600):
            obs, valid = core.normalize(np.full(3, float(step)))
            resolved = core.resolve(core.step, obs, valid)
            core.detect(core.step, resolved.covered, resolved.abs_error)
            core.append(obs, valid)
            core.advance()
        restored = StreamCore(4, 2).set_state(core.get_state())
        assert restored.refit_window == 1000
        assert restored._recent.maxlen == 1000

    def test_promoted_routes_are_re_pointed_on_load(self, tmp_path):
        """A reloaded fleet must actually route regions at their promoted
        deployments, not just report them in the snapshot."""
        with _server() as server:
            fleet = _run_fleet(server)
            server.deploy("east-cand", PersistenceForecaster(horizon=HORIZON, sigma=40.0))
            fleet._promote_region("east", "east-cand")
            assert fleet.router.routes["east"] == "east-cand"
            fleet.save(tmp_path / "ckpt")

            # same server still holds the deployment: routes come back
            restored = StreamFleet.load(tmp_path / "ckpt", server, detector_factory=_detectors)
            assert restored._region_deployment == {"east": "east-cand"}
            assert restored.router.routes.get("east") == "east-cand"

        # a fresh server without the deployment: the stale promotion record
        # is dropped instead of claiming a phantom model
        with _server() as server2:
            fresh = StreamFleet.load(tmp_path / "ckpt", server2, detector_factory=_detectors)
            assert fresh._region_deployment == {}
            assert "east" not in fresh.router.routes

    def test_wrong_format_version_rejected(self, tmp_path):
        import json

        with _server() as server:
            fleet = _run_fleet(server)
            fleet.save(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "fleet" / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FLEET_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with _server() as server2:
            with pytest.raises(ValueError, match="unsupported fleet checkpoint"):
                StreamFleet.load(tmp_path / "ckpt", server2, detector_factory=_detectors)

    def test_non_fleet_directory_rejected(self, tmp_path):
        from repro.utils.serialization import save_checkpoint

        save_checkpoint(tmp_path / "bogus" / "fleet", {"kind": "other"}, {})
        with _server() as server:
            with pytest.raises(ValueError, match="not a fleet checkpoint"):
                StreamFleet.load(tmp_path / "bogus", server)
