"""Observability over the wire: /trace, /profile, obs metrics, escaping, caps."""

import numpy as np
import pytest

import repro.obs as obs
from repro.fleet import StreamFleet
from repro.gateway.metrics import (
    _STREAM_METRIC_KEYS,
    GatewayMetrics,
    _Exposition,
    parse_prometheus_text,
)
from repro.obs.profiler import PhaseProfiler
from repro.serving import InferenceServer

from gatewaylib import HISTORY, NODES, constant_predictor, http_call


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.reset()
    yield
    obs.reset()


def _predict_once(gateway):
    window = np.zeros((HISTORY, NODES)).tolist()
    return http_call(gateway.url, "POST", "/predict", {"window": window})


class TestTraceSurface:
    def test_predict_trace_carries_the_full_span_chain(self, make_gateway):
        """The acceptance path: one traced /predict renders as the chain

        gateway.predict -> router.submit -> batch.execute -> model.forward
        with correct parentage — the batch spans hop threads (handler ->
        batch worker) and must still parent under the submitting request.
        """
        obs.configure(enabled=True, seed=0, log_sink=False)
        gateway = make_gateway()
        status, _, headers = _predict_once(gateway)
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        assert trace_id == "t00000001"  # fixed seed => deterministic IDs

        status, body, _ = http_call(gateway.url, "GET", "/trace?limit=10")
        assert status == 200
        assert body["enabled"] is True
        [tree] = [t for t in body["traces"] if t["trace_id"] == trace_id]
        assert tree["num_spans"] == 4
        chain = []
        ids = []
        [node] = tree["spans"]
        while True:
            chain.append(node["name"])
            ids.append((node["span_id"], node["parent_id"]))
            if not node["children"]:
                break
            [node] = node["children"]
        assert chain == [
            "gateway.predict",
            "router.submit",
            "batch.execute",
            "model.forward",
        ]
        # Parentage is exact: each span's parent_id is its predecessor's id.
        assert ids[0][1] is None
        for (child_id, parent_id), (prev_id, _) in zip(ids[1:], ids):
            assert parent_id == prev_id

    def test_trace_endpoint_when_disabled_reports_disabled(self, make_gateway):
        gateway = make_gateway()
        status, body, headers = http_call(gateway.url, "GET", "/trace")
        assert status == 200
        assert body["enabled"] is False
        assert body["traces"] == []
        assert "X-Trace-Id" not in headers  # unsampled requests stay silent

    def test_trace_limit_must_be_an_integer(self, make_gateway):
        gateway = make_gateway()
        status, body, _ = http_call(gateway.url, "GET", "/trace?limit=nope")
        assert status == 400
        assert "limit" in body["error"]["message"]

    def test_trace_limit_zero_returns_no_traces(self, make_gateway):
        obs.configure(enabled=True, seed=0, log_sink=False)
        gateway = make_gateway()
        assert _predict_once(gateway)[0] == 200
        status, body, _ = http_call(gateway.url, "GET", "/trace?limit=1")
        assert status == 200 and len(body["traces"]) == 1
        status, body, _ = http_call(gateway.url, "GET", "/trace?limit=0")
        assert status == 200
        assert body["traces"] == []

    def test_admin_requests_trace_too(self, make_gateway):
        obs.configure(enabled=True, seed=0, log_sink=False)
        gateway = make_gateway()
        status, _, headers = http_call(gateway.url, "GET", "/healthz")
        assert status == 200
        root_trace = headers["X-Trace-Id"]
        status, body, _ = http_call(gateway.url, "GET", "/trace?limit=50")
        names = {
            tree["spans"][0]["name"]
            for tree in body["traces"]
            if tree["spans"]
        }
        assert "gateway.healthz" in names
        assert any(tree["trace_id"] == root_trace for tree in body["traces"])


class TestProfileSurface:
    def test_profile_reports_phases_after_traffic(self, make_gateway):
        obs.configure(enabled=True, seed=0, log_sink=False)
        gateway = make_gateway()
        for index in range(3):
            # Distinct windows: identical ones would hit the prediction
            # cache and skip the model pass we want profiled.
            window = np.full((HISTORY, NODES), float(index)).tolist()
            status, _, _ = http_call(
                gateway.url, "POST", "/predict", {"window": window}
            )
            assert status == 200
        status, body, _ = http_call(gateway.url, "GET", "/profile")
        assert status == 200
        assert body["enabled"] is True
        assert body["phases"]["model_forward"]["count"] >= 3
        assert body["phases"]["queue_wait"]["count"] >= 3
        assert set(body["top_phases"]) <= set(body["phases"])

    def test_profile_when_disabled_is_empty_but_serves(self, make_gateway):
        gateway = make_gateway()
        status, body, _ = http_call(gateway.url, "GET", "/profile")
        assert status == 200
        assert body == {"enabled": False, "phases": {}, "top_phases": []}


class TestObsMetrics:
    def test_scrape_carries_obs_and_phase_series(self, make_gateway):
        obs.configure(enabled=True, seed=0, log_sink=False)
        gateway = make_gateway()
        status, _, _ = _predict_once(gateway)
        assert status == 200
        status, text, _ = http_call(gateway.url, "GET", "/metrics")
        assert status == 200
        series = parse_prometheus_text(text)
        assert series["obs_tracing_enabled"][()] == 1.0
        assert series["obs_profiling_enabled"][()] == 1.0
        assert series["obs_trace_spans_added_total"][()] >= 4.0
        assert series["obs_dropped_series_total"][()] == 0.0
        forward = (("phase", "model_forward"),)
        assert series["repro_phase_seconds_count"][forward] >= 1.0
        assert series["repro_phase_seconds_sum"][forward] >= 0.0
        assert (("phase", "model_forward"), ("quantile", "0.5")) in series[
            "repro_phase_seconds"
        ]
        # Server saturation series (queue depth / batch fill) export too.
        assert "repro_server_queue_depth" in series
        assert 0.0 <= series["repro_server_batch_fill_ratio"][()] <= 1.0

    def test_disabled_obs_scrape_shows_zero_flags(self, make_gateway):
        gateway = make_gateway()
        status, text, _ = http_call(gateway.url, "GET", "/metrics")
        assert status == 200
        series = parse_prometheus_text(text)
        assert series["obs_tracing_enabled"][()] == 0.0
        assert series["obs_profiling_enabled"][()] == 0.0


class TestCardinalityCap:
    def test_per_stream_series_cap_and_dropped_counter(self, make_gateway):
        server = InferenceServer(max_batch_size=8, max_wait_ms=1.0, cache_size=64)
        server.deploy("gen-0", constant_predictor(0.0))
        fleet = StreamFleet(server, history=HISTORY, horizon=2)
        fleet.add_streams([f"s{i}" for i in range(5)])
        gateway = make_gateway(server=server, fleet=fleet, max_metric_streams=2)

        status, text, _ = http_call(gateway.url, "GET", "/metrics")
        assert status == 200
        series = parse_prometheus_text(text)
        exported = {labels[0][1] for labels in series["repro_stream_step"]}
        # Sorted-by-name keeps the exported set stable scrape to scrape.
        assert exported == {"s0", "s1"}
        # ...and the cap is visible, not silent: count the exact series the
        # three capped streams would have emitted, from the same snapshot.
        status, snap, _ = http_call(gateway.url, "GET", "/snapshot")
        dropped = 0
        for name in sorted(snap["streams"])[2:]:
            stream = snap["streams"][name]
            dropped += 2  # step + warmed_up
            dropped += sum(
                1 for key in _STREAM_METRIC_KEYS if key in stream.get("metrics", {})
            )
            dropped += len({event["kind"] for event in stream.get("events", [])})
        assert dropped > 0
        assert series["obs_dropped_series_total"][()] == float(dropped)
        # Aggregates are never capped.
        assert series["repro_fleet_streams"][()] == 5.0

    def test_default_cap_keeps_small_fleets_untouched(self, make_gateway):
        server = InferenceServer(max_batch_size=8, max_wait_ms=1.0, cache_size=64)
        server.deploy("gen-0", constant_predictor(0.0))
        fleet = StreamFleet(server, history=HISTORY, horizon=2)
        fleet.add_streams(["a", "b"])
        gateway = make_gateway(server=server, fleet=fleet)
        status, text, _ = http_call(gateway.url, "GET", "/metrics")
        series = parse_prometheus_text(text)
        assert {labels[0][1] for labels in series["repro_stream_step"]} == {"a", "b"}
        assert series["obs_dropped_series_total"][()] == 0.0


class TestExpositionEscaping:
    def test_label_values_round_trip_through_the_parser(self):
        nasty = 'quo"te back\\slash new\nline'
        exp = _Exposition()
        exp.add("demo_total", "counter", "A demo.", 3, {"stream": nasty})
        text = exp.text()
        # The spec escapes: \ -> \\, newline -> \n, " -> \" (one line out).
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert text.count("\n") == 3  # HELP, TYPE, sample
        parsed = parse_prometheus_text(text)
        assert parsed["demo_total"][(("stream", nasty),)] == 3.0

    def test_help_text_escapes_backslash_and_newline_only(self):
        exp = _Exposition()
        exp.add("demo_total", "counter", 'line\nwith \\ and "quotes"', 1)
        help_line = exp.text().splitlines()[0]
        assert help_line == '# HELP demo_total line\\nwith \\\\ and "quotes"'

    def test_weird_deployment_names_survive_a_real_scrape(self, make_gateway):
        server = InferenceServer(max_batch_size=8, max_wait_ms=1.0, cache_size=64)
        name = 'gen"zero\\v1'
        server.deploy(name, constant_predictor(0.0))
        gateway = make_gateway(server=server)
        status, text, _ = http_call(gateway.url, "GET", "/metrics")
        assert status == 200
        series = parse_prometheus_text(text)
        assert series["repro_server_default_route"][(("deployment", name),)] == 1.0


class TestOneQuantileRule:
    """Gateway latencies and profiler phases share one nearest-rank rule,
    so the quantiles of one ``/metrics`` scrape agree with each other."""

    @pytest.mark.parametrize(
        "samples_ms, p50_ms, p99_ms",
        [([1.0, 100.0], 1.0, 100.0), ([float(ms) for ms in range(1, 101)], 50.0, 99.0)],
    )
    def test_gateway_and_profiler_summaries_agree(self, samples_ms, p50_ms, p99_ms):
        gateway, prof = GatewayMetrics(), PhaseProfiler()
        for ms in samples_ms:
            gateway.record("/predict", 200, ms / 1e3)
            prof.record("model_forward", ms / 1e3)
        entry = prof.snapshot()["model_forward"]
        for q, key, expected in ((0.5, "p50_ms", p50_ms), (0.99, "p99_ms", p99_ms)):
            assert gateway.quantile("/predict", q) * 1e3 == pytest.approx(expected)
            assert entry[key] == pytest.approx(expected)
