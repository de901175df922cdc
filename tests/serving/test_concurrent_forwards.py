"""The server runs the forwards of two micro-batches at once.

No lock surrounds a deployed predict function: with ``num_workers=2`` two
micro-batches go through one shared model at the same time, which is safe
because every forward keeps its dropout state in the thread-local
``repro.nn.inference`` context.  These tests are deterministic: threads meet
at Events with timeouts, never at a sleep or a timing threshold.
"""

import hashlib
import itertools
import json
import threading

import numpy as np

from repro.analysis import lockwatch
from repro.core.inference import BatchedPredictor, PredictionResult
from repro.data.scalers import StandardScaler
from repro.fleet import StreamFleet
from repro.models.agcrn import AGCRN
from repro.serving import InferenceServer

HISTORY, HORIZON, NODES = 6, 3, 4
STREAMS, TICKS, MAX_BATCH = 128, 24, 64
TIMEOUT = 10.0


def test_two_forwards_run_at_once():
    """Each forward waits for the other to start: serialized forwards time out."""
    started = [threading.Event(), threading.Event()]
    calls = itertools.count()

    def predict(windows):
        index = next(calls)
        started[index].set()
        if not started[1 - index].wait(TIMEOUT):
            raise TimeoutError("the forwards ran one after the other")
        mean = np.zeros((len(windows), HORIZON, NODES))
        return PredictionResult(mean=mean, aleatoric_var=mean + 1.0, epistemic_var=mean)

    with InferenceServer(predict, max_batch_size=1, num_workers=2, cache_size=0) as server:
        futures = server.submit_many([np.zeros((HISTORY, NODES)), np.ones((HISTORY, NODES))])
        for future in futures:
            assert future.result(timeout=3 * TIMEOUT).mean.shape == (1, HORIZON, NODES)
    assert next(calls) == 2


def _mc_predict(overlap_first_pair: bool):
    """An MC-dropout AGCRN predict; optionally the first two forwards overlap."""
    model = AGCRN(
        num_nodes=NODES, history=HISTORY, horizon=HORIZON, hidden_dim=4, embed_dim=2,
        encoder_dropout=0.1, decoder_dropout=0.2, heads=("mean", "log_var"),
        rng=np.random.default_rng(5),
    )
    scaler = StandardScaler().fit(np.array([0.0, 100.0]))
    predictor = BatchedPredictor(model, scaler)
    started = [threading.Event(), threading.Event()]
    calls = itertools.count()

    def predict(windows):
        index = next(calls)
        if overlap_first_pair and index < 2:
            started[index].set()
            if not started[1 - index].wait(TIMEOUT):
                raise TimeoutError("the first two forwards ran one after the other")
        return predictor.monte_carlo(
            scaler.transform(windows), num_samples=4, rng=np.random.default_rng(11)
        )

    return predict


def _tick_digests(num_workers: int):
    """One digest per tick of every forecast, interval and stream state."""
    rng = np.random.default_rng(3)
    base = rng.uniform(20.0, 80.0, (STREAMS, NODES))
    digests = []
    server = InferenceServer(
        _mc_predict(overlap_first_pair=num_workers == 2),
        max_batch_size=MAX_BATCH, num_workers=num_workers, cache_size=0,
    )
    with server:
        fleet = StreamFleet(server, HISTORY, HORIZON)
        names = [f"c{index}" for index in range(STREAMS)]
        for name in names:
            fleet.add_stream(name)
        forecasts = 0
        for _ in range(TICKS):
            rows = base + rng.normal(0.0, 5.0, base.shape)
            step = fleet.tick({name: rows[i] for i, name in enumerate(names)})
            digest = hashlib.sha256()
            for name in names:
                result = step.results[name]
                prediction = result.prediction
                if prediction is not None:
                    forecasts += 1
                    for attr in ("mean", "aleatoric_var", "epistemic_var"):
                        digest.update(getattr(prediction, attr).tobytes())
                    digest.update(result.lower.tobytes() + result.upper.tobytes())
                state = fleet.streams[name].core.get_state()
                digest.update(json.dumps(state["meta"], sort_keys=True).encode())
                for key, value in state["arrays"].items():
                    digest.update(key.encode() + np.asarray(value).tobytes())
            digests.append(digest.hexdigest())
    return digests, forecasts


def test_two_workers_match_one_worker_byte_for_byte():
    with lockwatch.watching():
        serial, serial_forecasts = _tick_digests(num_workers=1)
        concurrent, concurrent_forecasts = _tick_digests(num_workers=2)
    assert serial_forecasts == concurrent_forecasts >= STREAMS * (TICKS - HISTORY)
    for tick, (got, want) in enumerate(zip(concurrent, serial)):
        assert got == want, f"tick {tick} differs"
