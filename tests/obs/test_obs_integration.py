"""Observability against the real stack: zero behavioural footprint + coverage.

The contract the whole layer stands on: instrumenting the serving/fleet hot
path must not change a single output bit — enabled or disabled.  These tests
run the same seeded fleet with obs off and fully on and compare forecasts
bitwise, then assert the enabled run actually produced the promised
telemetry (tick traces, phase timings, drift events).
"""

import time

import numpy as np

import repro.obs as obs
from repro.core.inference import PredictionResult
from repro.data import StreamingTrafficFeed
from repro.fleet import StreamFleet
from repro.graph import grid_network
from repro.obs.profiler import profiler
from repro.obs.trace import start_trace, trace_store
from repro.serving import InferenceServer
from repro.streaming import PersistenceForecaster

HISTORY, HORIZON = 8, 4
STEPS = 24
NUM_STREAMS = 4


def _run_fleet(num_streams=NUM_STREAMS, steps=STEPS):
    network = grid_network(2, 2)
    feeds = {
        f"c{i}": StreamingTrafficFeed(network, num_steps=steps, seed=i)
        for i in range(num_streams)
    }
    model = PersistenceForecaster(horizon=HORIZON, sigma=20.0)
    with InferenceServer(
        model.predict, model_version="base", max_batch_size=64, max_wait_ms=2.0
    ) as server:
        fleet = StreamFleet(server, HISTORY, HORIZON)
        for name in feeds:
            fleet.add_stream(name)
        results = fleet.run({name: iter(feed) for name, feed in feeds.items()})
    return results


def _forecast_arrays(results):
    arrays = []
    for tick in results:
        for name, step in sorted(tick):
            if step.prediction is not None:
                arrays.append(step.prediction.mean)
                arrays.append(step.lower)
                arrays.append(step.upper)
    return arrays


def test_fleet_tick_outputs_bit_identical_with_obs_disabled_and_enabled():
    obs.reset()
    baseline = _forecast_arrays(_run_fleet())
    assert baseline  # the run must actually have produced forecasts

    obs.configure(enabled=True, seed=0, log_sink=False)
    instrumented = _forecast_arrays(_run_fleet())

    assert len(baseline) == len(instrumented)
    for expected, actual in zip(baseline, instrumented):
        np.testing.assert_array_equal(expected, actual)


def test_enabled_fleet_run_produces_tick_traces_and_phase_timings():
    obs.configure(enabled=True, seed=0, log_sink=False)
    _run_fleet(steps=HISTORY + 4)

    store = trace_store()
    assert store.stats["spans_added"] > 0
    tick_roots = [
        tree
        for tree in store.traces(limit=100)
        if tree["spans"] and tree["spans"][0]["name"] == "fleet.tick"
    ]
    assert tick_roots, "every fleet tick should be the root of its own trace"
    # A warm tick's trace carries the batch spans the predict fan-out made.
    names = set()

    def walk(record):
        names.add(record["name"])
        for child in record["children"]:
            walk(child)

    for tree in tick_roots:
        for root in tree["spans"]:
            walk(root)
    assert "batch.execute" in names
    assert "model.forward" in names

    snapshot = profiler().snapshot()
    for name in ("window_build", "batch_wait", "model_forward", "calibrate"):
        assert name in snapshot, name
        assert snapshot[name]["count"] > 0
    # The stream cores fed the calibration/monitoring phases too.
    assert "aci_update" in snapshot
    assert "monitor_update" in snapshot


def test_model_forward_timing_excludes_waiting_for_the_predict_lock():
    """Two one-window batches on two workers contend for the predict lock;
    the phase and the spans must record the forwards, not the second one's
    wait."""
    obs.configure(enabled=True, seed=0, log_sink=False)
    slept = []

    def sleepy_predict(windows):
        start = time.perf_counter()
        time.sleep(0.1)
        slept.append(time.perf_counter() - start)
        mean = np.zeros((len(windows), HORIZON, windows.shape[2]))
        return PredictionResult(mean=mean, aleatoric_var=mean + 1.0, epistemic_var=mean)

    with InferenceServer(
        sleepy_predict, max_batch_size=1, num_workers=2, cache_size=0
    ) as server:
        with start_trace("test.submit"):
            futures = server.submit_many([np.zeros((HISTORY, 4))] * 2)
        for future in futures:
            future.result(timeout=10.0)

    assert len(slept) == 2
    recorded = profiler().snapshot()["model_forward"]
    assert recorded["count"] == 2
    assert abs(recorded["total_s"] - sum(slept)) <= 0.1 * sum(slept)
    (trace,) = trace_store().traces()
    trace_id = trace["trace_id"]
    forwards = [
        span.duration
        for span in trace_store().spans(trace_id)
        if span.name == "model.forward"
    ]
    assert len(forwards) == 2
    assert abs(sum(forwards) - sum(slept)) <= 0.1 * sum(slept)
