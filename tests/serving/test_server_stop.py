"""Bounded shutdown: a hung model pass must not hang ``stop()``.

Before the fix, ``InferenceServer.stop()`` joined the dispatcher with a
timeout and then silently returned — a predict_fn stuck in a worker left
the pending future unresolved forever and the caller none the wiser.  Now
``stop(timeout=...)`` fails every stranded future with
:class:`~repro.serving.ServerStopped` and counts it in
``stats["stranded_requests"]``.
"""

import time

import numpy as np
import pytest

from repro.scenarios import PredictFault
from repro.serving import InferenceServer, ServerStopped
from repro.streaming import PersistenceForecaster

HISTORY, HORIZON, NODES = 6, 2, 4


def _server(**kwargs):
    model = PersistenceForecaster(horizon=HORIZON, sigma=1.0)
    return InferenceServer(
        model.predict, model_version="v1", max_batch_size=8, **kwargs
    ).start()


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


class TestBoundedStop:
    def test_hung_predict_strands_future_with_server_stopped(self):
        fault = PredictFault(hang=True)
        server = _server()
        try:
            server.fault_injector = fault
            future = server.submit(np.ones((HISTORY, NODES)))
            # The batch must reach the worker (and hang there) before the
            # stop, otherwise cancel_futures would simply drop it.
            _wait_for(lambda: fault.fired >= 1)
            server.stop(timeout=0.3)
            with pytest.raises(ServerStopped):
                future.result(timeout=1.0)
            assert server.stats["stranded_requests"] == 1
        finally:
            # Unblock the worker so the abandoned pool thread exits.
            fault.release()

    def test_worker_completing_after_stop_does_not_explode(self):
        """The late set_result on an already-failed future is swallowed."""
        fault = PredictFault(hang=True)
        server = _server()
        server.fault_injector = fault
        future = server.submit(np.ones((HISTORY, NODES)))
        _wait_for(lambda: fault.fired >= 1)
        server.stop(timeout=0.2)
        fault.release()
        # Give the worker time to run its (now ignored) completion path.
        time.sleep(0.2)
        with pytest.raises(ServerStopped):
            future.result(timeout=1.0)

    def test_clean_stop_strands_nothing(self):
        server = _server()
        future = server.submit(np.full((HISTORY, NODES), 3.0))
        np.testing.assert_allclose(
            future.result(timeout=10.0).mean[0], np.full((HORIZON, NODES), 3.0)
        )
        server.stop()
        assert server.stats["stranded_requests"] == 0

    def test_a_stopped_server_refuses_to_restart(self):
        server = _server()
        server.stop()
        with pytest.raises(RuntimeError, match="build a new server"):
            server.start()
        assert not server.stats["running"]
        with pytest.raises(RuntimeError, match="not running"):
            server.submit(np.ones((HISTORY, NODES)))
        assert server.stats["outstanding_requests"] == 0

    def test_stop_is_idempotent_after_strand(self):
        fault = PredictFault(hang=True)
        server = _server()
        try:
            server.fault_injector = fault
            server.submit(np.ones((HISTORY, NODES)))
            _wait_for(lambda: fault.fired >= 1)
            server.stop(timeout=0.2)
            server.stop(timeout=0.2)
            assert server.stats["stranded_requests"] == 1
        finally:
            fault.release()
