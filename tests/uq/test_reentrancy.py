"""Every UQ method's predict is re-entrant on one fitted instance.

A forward keeps its dropout mode and mask streams in the thread-local
``repro.nn.inference`` context, keeps AGCRN's encoder buffers in locals of
the call and writes nothing to the model, which is what lets the inference
server run two forwards over one deployment at once.
These tests hold one predict inside its forward while a second, whole
predict runs on another thread, and require both to equal sequential calls
bit for bit.  They are deterministic: the threads meet at Events, never at a
sleep or a timing threshold.
"""

import threading

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.core.awa import AWAConfig
from repro.core.inference import BatchedPredictor
from repro.data import SlidingWindowDataset, TrafficData, generate_traffic, train_val_test_split
from repro.graph import grid_network
from repro.models.agcrn import AGCRN, _CellKernel
from repro.nn.module import Module
from repro.uq import available_methods, create_method

NUM_NODES, HISTORY, HORIZON = 4, 6, 3
TIMEOUT = 30.0

#: Keep the expensive methods cheap.
METHOD_KWARGS = {
    "FGE": {"num_snapshots": 2, "cycle_epochs": 1},
    "DeepEnsemble": {"num_members": 2},
    "DeepSTUQ": {"awa_config": AWAConfig(epochs=2)},
}


@pytest.fixture(scope="module")
def fitted():
    network = grid_network(2, 2)
    values = generate_traffic(network, 400, seed=3)
    traffic = TrafficData(name="reentrancy", values=values, network=network)
    train, val, test = train_val_test_split(traffic)
    config = TrainingConfig(
        history=HISTORY, horizon=HORIZON, hidden_dim=4, embed_dim=2,
        epochs=2, batch_size=64, mc_samples=3, seed=0,
    )
    methods = {}
    for name in available_methods():
        method = create_method(name, NUM_NODES, config=config, **METHOD_KWARGS.get(name, {}))
        methods[name] = method.fit(train, val)
    windows, _ = SlidingWindowDataset(test, history=HISTORY, horizon=HORIZON).arrays()
    return methods, windows[:8], windows[8:16]


def _models(method):
    """Every module a fitted method holds: its model, members or snapshots."""
    found = []
    for value in vars(method).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, Module):
                found.append(item)
    return found


def _assert_same(result, expected):
    for field in ("mean", "aleatoric_var", "epistemic_var", "lower", "upper"):
        got, want = getattr(result, field), getattr(expected, field)
        assert (got is None) == (want is None), field
        if want is not None:
            np.testing.assert_array_equal(got, want, err_msg=field)


class _PauseInsideForward:
    """Hold one thread at its ``nth`` call of ``owner.attribute`` until released."""

    def __init__(self, thread: str, owner, attribute: str, nth: int = 3) -> None:
        self.thread, self.owner, self.attribute, self.nth = thread, owner, attribute, nth
        self.calls = 0
        self.paused, self.resume = threading.Event(), threading.Event()

    def install(self, monkeypatch) -> None:
        original = getattr(self.owner, self.attribute)

        def gated(*args, **kwargs):
            if threading.current_thread().name == self.thread:
                self.calls += 1
                if self.calls == self.nth:
                    self.paused.set()
                    if not self.resume.wait(TIMEOUT):
                        raise TimeoutError("the paused forward was never released")
            return original(*args, **kwargs)

        monkeypatch.setattr(self.owner, self.attribute, gated)


def _gate(method) -> _PauseInsideForward:
    """Where to hold predict A: mid-recurrence, with the forward's buffers live.

    An AGCRN's inference forward makes no module call inside its encoder, so
    it is held at its encoder kernel's ``nth`` step; any other model (CFRNN's
    GRU) at its ``nth`` module call.
    """
    runs_agcrn = any(isinstance(m, AGCRN) for model in _models(method) for m in model.modules())
    if runs_agcrn:
        return _PauseInsideForward("predict-A", _CellKernel, "step")
    return _PauseInsideForward("predict-A", Module, "__call__")


@pytest.mark.parametrize("name", available_methods())
def test_predict_is_reentrant(fitted, name, monkeypatch):
    methods, first, second = fitted
    method = methods[name]
    expected_a, expected_b = method.predict(first), method.predict(second)

    gate = _gate(method)
    gate.install(monkeypatch)
    results, errors = {}, []

    def run(label, windows):
        try:
            results[label] = method.predict(windows)
        except BaseException as error:  # surfaced by the asserts below
            errors.append(error)

    thread_a = threading.Thread(target=run, args=("a", first), name="predict-A")
    thread_a.start()
    try:
        assert gate.paused.wait(TIMEOUT), f"{name}: predict A never reached its forward"
        thread_b = threading.Thread(target=run, args=("b", second), name="predict-B")
        thread_b.start()
        thread_b.join(TIMEOUT)
        assert not thread_b.is_alive()
    finally:
        gate.resume.set()
        thread_a.join(TIMEOUT)
    assert not errors, errors
    _assert_same(results["a"], expected_a)
    _assert_same(results["b"], expected_b)


@pytest.mark.parametrize("name", available_methods())
def test_predict_writes_no_module_state(fitted, name, module_state_of, monkeypatch):
    methods, first, _ = fitted
    method = methods[name]
    models = _models(method)
    assert models
    before = module_state_of(*models)
    method.predict(first)
    # The looped reference path, for methods that sample.
    monkeypatch.setattr(BatchedPredictor, "_folded_forward", BatchedPredictor._looped_forward)
    method.predict(first)
    assert module_state_of(*models) == before
