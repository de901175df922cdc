"""Graceful lifecycle: ephemeral binding, bounded stop, idempotent teardown.

The regression at stake: ``stop(timeout)`` must return within its bound even
with requests in flight on a hung model — the inference server's bounded stop
fails stranded futures with ``ServerStopped``, which wakes the blocked
handler into a 503.
"""

import threading
import time

import numpy as np
import pytest

from repro.gateway import Gateway
from repro.serving import InferenceServer

from gatewaylib import HISTORY, NODES, constant_predictor, http_call


def _window():
    return np.zeros((HISTORY, NODES)).tolist()


def test_ephemeral_ports_are_distinct(make_gateway):
    first, second = make_gateway(), make_gateway()
    assert first.port != second.port
    for gateway in (first, second):
        status, body, _ = http_call(gateway.url, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"


def test_context_manager_round_trip():
    server = InferenceServer(max_batch_size=8, max_wait_ms=1.0)
    server.deploy("gen-0", constant_predictor(0.0))
    with Gateway(server) as gateway:
        status, _, _ = http_call(gateway.url, "POST", "/predict", {"window": _window()})
        assert status == 200
    assert gateway.port is None
    assert not server.stats["running"]


def test_stop_is_idempotent_and_bounded_when_idle():
    server = InferenceServer(max_batch_size=8, max_wait_ms=1.0)
    server.deploy("gen-0", constant_predictor(0.0))
    gateway = Gateway(server).start(port=0)
    started = time.monotonic()
    gateway.stop(timeout=5.0)
    gateway.stop(timeout=5.0)  # second stop is a no-op, not an error
    assert time.monotonic() - started < 5.0
    assert gateway.inflight_requests == 0


def test_stop_never_hangs_with_requests_in_flight_on_a_hung_model():
    server = InferenceServer(max_batch_size=8, max_wait_ms=1.0, cache_size=0)
    server.deploy("gen-0", constant_predictor(0.0))
    gateway = Gateway(server, request_timeout=30.0).start(port=0)
    url = gateway.url

    release = threading.Event()
    entered = threading.Event()

    def hang(deployment_name, stacked):
        entered.set()
        release.wait(timeout=30.0)

    server.fault_injector = hang

    outcome = {}

    def client():
        try:
            outcome["response"] = http_call(url, "POST", "/predict", {"window": _window()})
        except OSError as error:  # connection torn down mid-request
            outcome["error"] = error

    thread = threading.Thread(target=client, daemon=True)
    thread.start()
    assert entered.wait(timeout=5.0), "request never reached the model"

    started = time.monotonic()
    gateway.stop(timeout=1.5)
    elapsed = time.monotonic() - started
    # Bounded: well under the 30s the hung model (and the client) would take.
    assert elapsed < 6.0
    assert server.stats["stranded_requests"] == 1

    release.set()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    # The stranded client saw a clean 503 (or a torn connection) — never a hang.
    if "response" in outcome:
        status, body, headers = outcome["response"]
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert body["error"]["status"] == 503


def test_stop_without_stopping_the_server():
    server = InferenceServer(max_batch_size=8, max_wait_ms=1.0)
    server.deploy("gen-0", constant_predictor(0.0))
    gateway = Gateway(server).start(port=0)
    gateway.stop(timeout=5.0, stop_server=False)
    assert server.stats["running"]
    # The server keeps serving in-process traffic after the gateway is gone.
    result = server.predict_many([np.zeros((HISTORY, NODES))], timeout=10.0)[0]
    assert float(result.mean[0, 0, 0]) == 0.0
    server.stop()


def test_restart_after_stop_binds_a_fresh_port():
    server = InferenceServer(max_batch_size=8, max_wait_ms=1.0)
    server.deploy("gen-0", constant_predictor(0.0))
    gateway = Gateway(server).start(port=0)
    gateway.stop(timeout=5.0, stop_server=False)
    gateway.start(port=0)
    try:
        status, _, _ = http_call(gateway.url, "POST", "/predict", {"window": _window()})
        assert status == 200
    finally:
        gateway.stop(timeout=5.0)


def test_restart_after_a_full_stop_needs_a_new_server():
    server = InferenceServer(max_batch_size=8, max_wait_ms=1.0)
    server.deploy("gen-0", constant_predictor(0.0))
    gateway = Gateway(server).start(port=0)
    gateway.stop(timeout=5.0)
    with pytest.raises(RuntimeError, match="build a new server"):
        gateway.start(port=0)
    assert gateway.port is None
