"""Chaos harness: fault injection for the serving and fleet layers.

The scenario DSL perturbs the *data*; this module perturbs the *system*.
Each helper injects one production failure mode under test control —
deterministically, so fixed-seed tier-1 tests can assert the exact
invariant the architecture promises:

* :func:`kill_and_restore` — checkpoint a fleet, throw the process state
  away, rebuild from disk onto a fresh server.  Invariant: the restored
  fleet continues bit-identically (a drift that was unfolding at the kill
  fires at the same step it would have without the kill).
* :class:`PredictFault` — an :attr:`InferenceServer.fault_injector` hook
  that makes a chosen deployment's model pass raise, or hang until
  released, on a chosen call.  Invariants: zero dropped futures (failed
  ticks log ``stream_predict_failed`` and the fleet keeps lock-step), and
  a bounded :meth:`InferenceServer.stop` that fails stranded futures with
  :class:`~repro.serving.ServerStopped` instead of hanging.
* :class:`FlakyRefit` — wraps a fleet refit function so its background
  thread dies on a chosen call.  Invariant: the failure surfaces as a
  ``region_refit_failed`` event and the fleet keeps serving.
* :func:`thrash_cache` — floods the shared prediction cache with unique
  windows to force eviction churn.  Invariant: results stay correct and
  every future resolves while the cache turns over.

:class:`ChaosSchedule` strings such actions onto fleet ticks for the
:func:`~repro.scenarios.driver.run_fleet_scenario` driver.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs.events import log_event

#: A chaos action: called as ``action(fleet, tick)``; returning a fleet
#: replaces the one being driven (how kill-and-restore swaps processes).
ChaosAction = Callable[[Any, int], Optional[Any]]


class ChaosSchedule:
    """Tick-indexed chaos actions for the fleet scenario driver.

    Register actions with :meth:`at` (chainable); the driver calls
    :meth:`fire` at the top of every tick.  An action returning a new fleet
    object replaces the driven fleet from that tick on.
    """

    def __init__(self) -> None:
        self._actions: Dict[int, List[ChaosAction]] = {}

    def at(self, tick: int, action: ChaosAction) -> "ChaosSchedule":
        self._actions.setdefault(int(tick), []).append(action)
        return self

    def fire(self, fleet: Any, tick: int) -> Any:
        """Run every action due at ``tick``; returns the (possibly new) fleet."""
        for action in self._actions.get(int(tick), ()):
            replacement = action(fleet, tick)
            if replacement is not None:
                fleet = replacement
        return fleet

    def __len__(self) -> int:
        return sum(len(actions) for actions in self._actions.values())


# ---------------------------------------------------------------------- #
# Kill-and-restore
# ---------------------------------------------------------------------- #
def kill_and_restore(
    fleet: Any,
    directory: Union[str, Path],
    server: Any,
    **load_kwargs: Any,
) -> Any:
    """Checkpoint ``fleet``, kill its process state, rebuild onto ``server``.

    ``server`` is a fresh, started server — the restarted process's.  The
    old fleet's server is stopped (the "kill"); behaviour-bearing kwargs
    (``detector_factory``, ``refit_fn``, ...) must be re-supplied through
    ``load_kwargs`` exactly as :func:`repro.fleet.checkpoint.load_fleet`
    documents: behaviour lives in code, state in the checkpoint.
    """
    directory = Path(directory)
    log_event("chaos.kill_and_restore", directory=str(directory))
    fleet.save(directory)
    old_server = getattr(fleet, "server", None)
    if old_server is not None and hasattr(old_server, "stop"):
        old_server.stop()
    return type(fleet).load(directory, server, **load_kwargs)


def scheduled_kill_and_restore(  # repro: noqa[unused/symbol] tests/scenarios/test_chaos.py
    directory: Union[str, Path],
    server_factory: Callable[[], Any],
    **load_kwargs: Any,
) -> ChaosAction:
    """A :class:`ChaosSchedule` action running :func:`kill_and_restore`.

    ``server_factory`` builds and starts the replacement server when the
    action fires (building it eagerly would mean running two servers for
    the whole pre-kill phase).
    """

    def action(fleet: Any, tick: int) -> Any:
        return kill_and_restore(fleet, directory, server_factory(), **load_kwargs)

    return action


# ---------------------------------------------------------------------- #
# Serving-layer faults
# ---------------------------------------------------------------------- #
class PredictFault:
    """Deterministic fault injector for ``InferenceServer.fault_injector``.

    Fires on the ``on_call``-th matching model pass (counting only calls
    whose deployment matches ``deployment``, or every call when ``None``)
    and keeps firing for ``count`` consecutive matches (``None`` = forever).
    ``error`` raises into the batch's normal failure path; ``hang=True``
    blocks the worker until :meth:`release` — the hung-model simulation the
    bounded-shutdown test drives.
    """

    def __init__(
        self,
        error: Optional[BaseException] = None,
        hang: bool = False,
        on_call: int = 1,
        count: Optional[int] = 1,
        deployment: Optional[str] = None,
    ) -> None:
        if (error is None) == (not hang):
            raise ValueError("give exactly one of error= or hang=True")
        if on_call < 1 or (count is not None and count < 1):
            raise ValueError("on_call and count must be >= 1")
        self.error = error
        self.hang = bool(hang)
        self.on_call = int(on_call)
        self.count = count
        self.deployment = deployment
        self.calls = 0
        self.fired = 0
        self._lock = threading.Lock()
        self._release = threading.Event()

    def release(self) -> None:
        """Unblock every hanging model pass (test teardown MUST call this)."""
        self._release.set()

    def __call__(self, deployment_name: str, stacked: np.ndarray) -> None:
        if self.deployment is not None and deployment_name != self.deployment:
            return
        with self._lock:
            self.calls += 1
            due = self.calls >= self.on_call and (
                self.count is None or self.calls < self.on_call + self.count
            )
            if due:
                self.fired += 1
        if not due:
            return
        log_event(
            "chaos.predict_fault",
            deployment=deployment_name,
            mode="hang" if self.hang else type(self.error).__name__,
            call=self.calls,
        )
        if self.hang:
            self._release.wait()
            return
        raise self.error


class FlakyRefit:  # repro: noqa[unused/symbol] instrument tests/scenarios/test_chaos.py drives
    """Wrap a fleet ``refit_fn`` so a chosen call dies (thread and all).

    The coordinator runs refits on background threads; a raising wrapped
    call is exactly "the refit thread died mid-trial" — the exception is
    recorded, surfaces as a ``region_refit_failed`` fleet event on the next
    tick, and the incumbent keeps serving.
    """

    def __init__(
        self,
        refit_fn: Callable[[str, Dict[str, np.ndarray]], Any],
        fail_on: int = 1,
        error: Optional[BaseException] = None,
    ) -> None:
        self.refit_fn = refit_fn
        self.fail_on = int(fail_on)
        self.error = error if error is not None else RuntimeError("chaos: refit died")
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, region: str, recents: Dict[str, np.ndarray]) -> Any:
        with self._lock:
            self.calls += 1
            dies = self.calls == self.fail_on
        if dies:
            log_event(
                "chaos.flaky_refit",
                region=region,
                call=self.calls,
                error=type(self.error).__name__,
            )
            raise self.error
        return self.refit_fn(region, recents)


def thrash_cache(  # repro: noqa[unused/symbol] instrument tests/scenarios/test_chaos.py drives
    server: Any,
    num_windows: int,
    history: int,
    num_nodes: int,
    seed: int = 0,
    timeout: Optional[float] = 30.0,
) -> List[Any]:
    """Churn the server's shared cache with ``num_windows`` unique windows.

    Every submitted window is distinct (seeded uniform draws), so each one
    misses, runs the model and inserts — on a small cache that forces
    fair-share eviction of whatever the real workload had warmed.  Blocks
    until every future resolves and returns the results, so the invariant
    "thrash drops nothing" is checked by construction.
    """
    rng = np.random.default_rng(seed)
    log_event("chaos.thrash_cache", num_windows=int(num_windows), seed=int(seed))
    windows = rng.uniform(0.0, 500.0, size=(int(num_windows), history, num_nodes))
    futures = server.submit_many(list(windows))
    return [future.result(timeout=timeout) for future in futures]
