"""Runtime lock-order sanitizer (the dynamic half of ``lock-order``).

The static rule sees one module at a time; real deadlocks live in the
cross-object orders it cannot resolve (``server._lock`` vs
``pool._lock`` vs a gateway handler's lock).  This module checks those
at runtime, lockdep-style:

* :class:`TrackedLock` wraps a real ``threading`` lock.  Each acquire
  records the edge *every currently-held lock → the new lock* (per
  thread, with the acquiring source site) into a process-global order
  graph.
* Before the edge is added, the watcher searches the graph for a path
  in the opposite direction.  Finding one means two threads can acquire
  the same pair of locks in opposite orders — a deadlock waiting for
  the right interleaving — and raises :class:`LockOrderError`
  immediately, *before* blocking, even if this particular run would
  have survived.
* Re-acquiring a held non-reentrant ``Lock`` raises as a guaranteed
  self-deadlock; ``RLock`` re-entry is counted, not flagged.

Usage — wrap a whole suite so every lock the stack creates is tracked::

    from repro.analysis import lockwatch

    with lockwatch.watching() as watch:
        server = InferenceServer(...)   # locks constructed here are tracked
        ... drive the storm ...
    watch.assert_acyclic()              # no violations recorded

:func:`watching` patches ``threading.Lock``/``threading.RLock`` for the
duration (construction time decides tracking; already-existing locks
are untouched).  Individual locks can also be wrapped explicitly via
:meth:`LockWatcher.wrap`.  Overhead is a dict update per acquire —
fine for tests, not meant for production serving.
"""

from __future__ import annotations

import os
import sys
import threading
from _thread import allocate_lock as _raw_lock
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["LockOrderError", "LockWatcher", "TrackedLock", "watching"]

_THIS_FILE = os.path.normcase(os.path.abspath(__file__))


class LockOrderError(RuntimeError):
    """A lock-order cycle (or non-reentrant re-entry) was detected."""

    def __init__(self, message: str, cycle: Tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.cycle = tuple(cycle)


def _acquire_site() -> str:
    """``file.py:line`` of the nearest caller outside this module/threading."""
    frame = sys._getframe(2)
    while frame is not None:
        filename = os.path.normcase(frame.f_code.co_filename)
        if filename != _THIS_FILE and not filename.endswith("threading.py"):
            return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class TrackedLock:
    """A ``Lock``/``RLock`` stand-in reporting acquires to a watcher.

    Exposes the full lock protocol plus the private hooks
    (``_release_save``/``_acquire_restore``/``_is_owned``) that
    ``threading.Condition`` probes for, so condition variables built on
    tracked locks — including ``queue.Queue`` internals — keep working.
    """

    def __init__(
        self, inner, watcher: "LockWatcher", name: str, reentrant: bool
    ) -> None:
        self._inner = inner
        self._watcher = watcher
        self.name = name
        self.reentrant = reentrant

    # -- core protocol -------------------------------------------------- #
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._watcher._before_acquire(self, blocking)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._watcher._after_acquire(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._watcher._after_release(self)

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def locked(self) -> bool:  # repro: noqa[unused/symbol] tests/analysis/test_lockwatch.py
        locked = getattr(self._inner, "locked", None)
        if locked is not None:
            return locked()
        return self._is_owned()

    # -- threading.Condition integration -------------------------------- #
    def _release_save(self):
        inner_save = getattr(self._inner, "_release_save", None)
        state = inner_save() if inner_save is not None else self._inner.release()
        self._watcher._forget_held(self)
        return state

    def _acquire_restore(self, state) -> None:
        self._watcher._before_acquire(self, True)
        inner_restore = getattr(self._inner, "_acquire_restore", None)
        if inner_restore is not None:
            inner_restore(state)
        else:
            self._inner.acquire()
        self._watcher._after_acquire(self)

    def _is_owned(self) -> bool:
        inner_owned = getattr(self._inner, "_is_owned", None)
        if inner_owned is not None:
            return inner_owned()
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def __repr__(self) -> str:
        kind = "RLock" if self.reentrant else "Lock"
        return f"TrackedLock({kind} {self.name})"


class LockWatcher:
    """Process-global acquisition-order graph over tracked locks."""

    def __init__(self, raise_on_cycle: bool = True) -> None:
        self.raise_on_cycle = raise_on_cycle
        # The watcher's own mutex is a raw _thread lock: it must never be
        # tracked (bookkeeping inside bookkeeping would recurse forever).
        self._mutex = _raw_lock()
        self._local = threading.local()
        # edge (id_a -> id_b) -> "site_a -> site_b" of the first observation
        self._edges: Dict[int, Dict[int, str]] = {}
        self._locks: Dict[int, TrackedLock] = {}  # strong refs: ids stay unique
        self._violations: List[LockOrderError] = []
        self._enabled = False
        self._max_held = 0

    # -- lifecycle ------------------------------------------------------ #
    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        with self._mutex:
            self._edges.clear()
            self._locks.clear()
            self._violations.clear()
            self._max_held = 0

    def wrap(self, lock, name: Optional[str] = None, reentrant: bool = False) -> TrackedLock:
        tracked = TrackedLock(
            lock, self, name if name is not None else _acquire_site(), reentrant
        )
        with self._mutex:
            self._locks[id(tracked)] = tracked
        return tracked

    # -- introspection --------------------------------------------------- #
    @property
    def violations(self) -> List[LockOrderError]:
        with self._mutex:
            return list(self._violations)

    def edges(self) -> List[Tuple[str, str]]:
        """Observed ``(holder_name, acquired_name)`` order pairs."""
        with self._mutex:
            return sorted(
                {
                    (self._locks[a].name, self._locks[b].name)
                    for a, targets in self._edges.items()
                    for b in targets
                    if a in self._locks and b in self._locks
                }
            )

    def stats(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "locks_tracked": len(self._locks),
                "edges": sum(len(t) for t in self._edges.values()),
                "violations": len(self._violations),
                "max_held_by_one_thread": self._max_held,
            }

    def assert_acyclic(self) -> None:  # repro: noqa[unused/symbol] tests/analysis/test_lockwatch.py
        """Raise the first recorded violation (for end-of-test assertions)."""
        violations = self.violations
        if violations:
            raise violations[0]

    # -- bookkeeping ----------------------------------------------------- #
    def _held(self) -> List[List]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def _before_acquire(self, lock: TrackedLock, blocking) -> None:
        held = self._held()
        for entry in held:
            if entry[0] is lock:
                if lock.reentrant or not blocking or not self._enabled:
                    return
                error = LockOrderError(
                    f"self-deadlock: thread {threading.current_thread().name!r} "
                    f"re-acquiring non-reentrant {lock.name} it already holds",
                    cycle=(lock.name, lock.name),
                )
                with self._mutex:
                    self._violations.append(error)
                if self.raise_on_cycle:
                    raise error
                return
        if not held or not self._enabled:
            return
        site = _acquire_site()
        with self._mutex:
            for holder, _ in held:
                self._add_edge_locked(holder, lock, site)

    def _add_edge_locked(self, holder: TrackedLock, lock: TrackedLock, site: str) -> None:
        targets = self._edges.setdefault(id(holder), {})
        if id(lock) in targets:
            return
        # Adding holder -> lock closes a cycle iff lock already reaches holder.
        path = self._find_path_locked(id(lock), id(holder))
        targets[id(lock)] = f"{holder.name} -> {lock.name} at {site}"
        if path is not None:
            names = tuple(
                self._locks[node].name for node in path if node in self._locks
            ) + (lock.name,)
            error = LockOrderError(
                "lock-order cycle (deadlock possible): "
                + " -> ".join(names)
                + f"; closing edge acquired at {site}",
                cycle=names,
            )
            self._violations.append(error)
            if self.raise_on_cycle:
                raise error

    def _find_path_locked(self, start: int, goal: int) -> Optional[List[int]]:
        if start == goal:
            return [start]
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            for nxt in self._edges.get(node, ()):
                if nxt == goal:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def _after_acquire(self, lock: TrackedLock) -> None:
        held = self._held()
        for entry in held:
            if entry[0] is lock:
                entry[1] += 1
                return
        held.append([lock, 1])
        if len(held) > self._max_held:
            self._max_held = len(held)

    def _after_release(self, lock: TrackedLock) -> None:
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index][0] is lock:
                held[index][1] -= 1
                if held[index][1] <= 0:
                    del held[index]
                return
        # Released by a thread that never acquired it (hand-off patterns):
        # nothing to unwind locally.

    def _forget_held(self, lock: TrackedLock) -> None:
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index][0] is lock:
                del held[index]
                return


@contextmanager
def watching(  # repro: noqa[unused/symbol] tests/analysis/test_lockwatch.py
    watcher: Optional[LockWatcher] = None, raise_on_cycle: bool = True
) -> Iterator[LockWatcher]:
    """Patch ``threading.Lock``/``RLock`` so new locks are tracked.

    Only locks *constructed* inside the block are tracked; they remain
    tracked (and the watcher keeps recording) until the watcher is
    disabled on exit.  Nesting or concurrent use of two ``watching``
    blocks is not supported — use one per test.
    """
    active = watcher if watcher is not None else LockWatcher(raise_on_cycle=raise_on_cycle)
    original_lock, original_rlock = threading.Lock, threading.RLock

    def make_lock():
        return active.wrap(original_lock(), reentrant=False)

    def make_rlock():
        return active.wrap(original_rlock(), reentrant=True)

    threading.Lock = make_lock  # type: ignore[assignment]
    threading.RLock = make_rlock  # type: ignore[assignment]
    active.enable()
    try:
        yield active
    finally:
        threading.Lock = original_lock  # type: ignore[assignment]
        threading.RLock = original_rlock  # type: ignore[assignment]
        active.disable()
