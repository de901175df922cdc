"""O(1) rolling-window online metrics for the streaming loop.

A live forecasting loop needs per-step answers to "how well calibrated are we
*right now*?" without re-scanning history.  :class:`RollingStat` keeps a
fixed-capacity ring buffer plus a running sum, so pushing a value and reading
the rolling mean are both O(1); :class:`StreamingMonitor` composes several of
them into the online analogue of the batch Table IV metrics — coverage, mean
interval width, MAE, RMSE and the Winkler score — over the last ``window``
observed steps.

Partial observations are first-class: every update takes a validity mask
(NaN-masked sensors are simply excluded from that step's statistics), and a
step with no valid entry at all leaves the window untouched.

:func:`update_monitors` scores one step for many monitors at once (a fleet
tick); :meth:`StreamingMonitor.update` is its one-monitor call.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence

import numpy as np


class RollingStat:
    """Ring buffer with an O(1) running mean over the last ``window`` pushes.

    The running sum is re-summed from the ring once per wrap: the pure
    add/subtract update otherwise accumulates float cancellation error
    without bound on long streams (push ``1e12`` then millions of ``1e-4``
    values and the incremental sum ends up dominated by the leftover of the
    subtraction).  One exact O(window) re-sum every ``window`` pushes keeps
    the amortized cost O(1) and the mean within float accuracy forever.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self._values = np.zeros(self.window, dtype=np.float64)
        self._pos = 0
        self._count = 0
        self._sum = 0.0

    def push(self, value: float) -> None:
        value = float(value)
        if self._count == self.window:
            self._sum -= self._values[self._pos]
        else:
            self._count += 1
        self._values[self._pos] = value
        self._sum += value
        self._pos = (self._pos + 1) % self.window
        if self._pos == 0:
            # The cursor only returns to 0 with a full ring; np.sum's pairwise
            # summation makes this the exact window sum.
            self._sum = float(self._values.sum())

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            return float("nan")
        # float(): the eviction path subtracts an ndarray element, silently
        # promoting _sum to np.float64 — keep the read JSON-native.
        return float(self._sum) / self._count

    def reset(self) -> None:
        self._values[:] = 0.0
        self._pos = 0
        self._count = 0
        self._sum = 0.0

    def get_state(self) -> Dict[str, np.ndarray]:
        """Ring buffer + cursor + running sum as named arrays (bit-exact)."""
        return {
            "values": self._values.copy(),
            "pos": np.array(self._pos, dtype=np.int64),
            "count": np.array(self._count, dtype=np.int64),
            "sum": np.array(self._sum, dtype=np.float64),
        }

    def set_state(self, state: Dict[str, np.ndarray]) -> "RollingStat":
        """Restore a :meth:`get_state` snapshot (bit-identical round trip)."""
        values = np.asarray(state["values"], dtype=np.float64)
        if values.shape != (self.window,):
            raise ValueError(
                f"state holds a window of {values.shape[0]}, stat expects {self.window}"
            )
        self._values = values.copy()
        self._pos = int(state["pos"])
        self._count = int(state["count"])
        self._sum = float(state["sum"])
        return self

    def values(self) -> np.ndarray:
        """The buffered values, oldest first (a copy)."""
        if self._count < self.window:
            return self._values[: self._count].copy()
        return np.concatenate(
            [self._values[self._pos :], self._values[: self._pos]]
        )


def update_monitors(
    monitors: Sequence["StreamingMonitor"],
    target: np.ndarray,
    mean: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rows: Sequence[int],
    mask: Optional[np.ndarray] = None,
    locks: Optional[Sequence[Any]] = None,
) -> List[Optional[List[float]]]:
    """Score one step's resolved forecasts for many monitors in one pass.

    The arrays are aligned ``(rows, entries)`` blocks and monitor ``i`` owns
    the next ``rows[i]`` of them; ``mask`` marks valid entries (default
    ``isfinite(target)``).  Each monitor's step statistics are means over
    its own valid entries, compacted in row-major order.  Monitors are
    grouped by their count of valid entries and each group is reduced along
    a contiguous last axis, which NumPy sums with the same pairwise blocking
    as the 1-D array a one-monitor update reduces, so every pushed mean is
    bit-identical to it.  (Padding masked entries with zeros instead would
    change the blocking, and with it the last bits.)

    Returns, per monitor, the pushed ``[coverage, width, abs_error,
    sq_error, winkler]``, or ``None`` when nothing was valid (nothing is
    pushed; the step still counts).  With ``locks``, monitor ``i`` is
    updated under ``locks[i]``, one lock at a time.
    """
    target = np.asarray(target, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    valid = np.isfinite(target)
    if mask is not None:
        valid &= np.asarray(mask, dtype=bool)
    bounds = np.concatenate(([0], np.cumsum(rows))).astype(np.intp)
    per_row = np.concatenate(([0], np.cumsum(valid.sum(axis=1))))
    starts = per_row[bounds[:-1]]
    counts = per_row[bounds[1:]] - starts
    t, m = target[valid], mean[valid]
    lo, up = lower[valid], upper[valid]
    inside = np.concatenate(([0], np.cumsum((t >= lo) & (t <= up))))
    width = up - lo
    below = (lo - t) * (t < lo)
    above = (t - up) * (t > up)
    penalty = np.repeat([2.0 / monitor.significance for monitor in monitors], counts)
    error = t - m
    terms = (width, np.abs(error), error ** 2, width + penalty * (below + above))
    # A set, np.add.outer over a range and 1-D indices into row views: the
    # NumPy calls that keep the interpreter lock (see repro.streaming.shard).
    stats = np.full((5, len(monitors)), np.nan)
    for n in sorted(set(counts[counts > 0].tolist())):
        group = np.flatnonzero(counts == n)
        first = starts[group]
        stats[0][group] = (inside[first + n] - inside[first]) / n
        index = np.add.outer(first, range(n))
        for column, term in enumerate(terms, start=1):
            stats[column][group] = term[index].sum(axis=1) / n
    results: List[Optional[List[float]]] = []
    for i, (monitor, row) in enumerate(zip(monitors, stats.T.tolist())):
        with locks[i] if locks is not None else nullcontext():
            monitor.steps += 1
            if not counts[i]:
                results.append(None)
                continue
            monitor._covered.push(row[0])
            monitor._width.push(row[1])
            monitor._abs_error.push(row[2])
            monitor._sq_error.push(row[3])
            monitor._winkler.push(row[4])
        results.append(row)
    return results


class StreamingMonitor:
    """Online coverage / width / error tracking over a rolling step window.

    Each :meth:`update` scores one batch of aligned (target, forecast,
    interval) rows — typically every horizon row that the newest observation
    resolved — and pushes that step's per-entry means into the ring buffers.
    :meth:`snapshot` then reads the rolling metrics in O(1).

    Parameters
    ----------
    window:
        Number of most recent steps the metrics aggregate over.
    significance:
        Interval miscoverage level used by the Winkler score penalty.
    """

    def __init__(self, window: int = 288, significance: float = 0.05) -> None:
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must lie in (0, 1)")
        self.window = int(window)
        self.significance = float(significance)
        self._covered = RollingStat(window)
        self._width = RollingStat(window)
        self._abs_error = RollingStat(window)
        self._sq_error = RollingStat(window)
        self._winkler = RollingStat(window)
        self.steps = 0

    # ------------------------------------------------------------------ #
    def update(
        self,
        target: np.ndarray,
        mean: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> Optional[float]:
        """Score one step's resolved forecasts; returns the step's coverage.

        All arrays must share a shape; ``mask`` marks valid entries (defaults
        to ``isfinite(target)``, so NaN-masked sensors drop out).  Returns the
        fraction of valid entries covered, or ``None`` when nothing was valid.
        """
        target = np.asarray(target, dtype=np.float64)
        if mask is not None:
            mask = np.broadcast_to(np.asarray(mask, dtype=bool), target.shape).reshape(1, -1)
        stats = update_monitors(
            [self],
            target.reshape(1, -1),
            np.asarray(mean, dtype=np.float64).reshape(1, -1),
            np.asarray(lower, dtype=np.float64).reshape(1, -1),
            np.asarray(upper, dtype=np.float64).reshape(1, -1),
            [1],
            mask,
        )[0]
        return None if stats is None else stats[0]

    # ------------------------------------------------------------------ #
    @property
    def coverage(self) -> float:
        """Rolling-window coverage, in percent (NaN before any update)."""
        return self._covered.mean * 100.0

    def snapshot(self) -> Dict[str, Any]:
        """The rolling metric bundle: online PICP / MPIW / MAE / RMSE / Winkler."""
        mse = self._sq_error.mean
        return {
            "coverage": self.coverage,
            "mean_width": self._width.mean,
            "mae": self._abs_error.mean,
            "rmse": float(np.sqrt(mse)) if np.isfinite(mse) else float("nan"),
            "winkler": self._winkler.mean,
            "window": self.window,
            "scored_steps": self._covered.count,
            "steps": self.steps,
        }

    def reset(self) -> None:
        for stat in self._stats().values():
            stat.reset()
        self.steps = 0

    # ------------------------------------------------------------------ #
    # State protocol (matches the calibrator / UQMethod shape)
    # ------------------------------------------------------------------ #
    def _stats(self) -> Dict[str, RollingStat]:
        return {
            "covered": self._covered,
            "width": self._width,
            "abs_error": self._abs_error,
            "sq_error": self._sq_error,
            "winkler": self._winkler,
        }

    def get_state(self) -> Dict[str, Any]:
        """Full rolling state as ``{"meta": ..., "arrays": ...}``.

        Restoring it through :meth:`set_state` reproduces every rolling
        metric bit-identically, so monitors survive a serving restart
        instead of re-warming from empty windows.
        """
        arrays: Dict[str, np.ndarray] = {}
        for label, stat in self._stats().items():
            for key, value in stat.get_state().items():
                arrays[f"monitor.{label}.{key}"] = value
        return {
            "meta": {
                "kind": "monitor",
                "window": self.window,
                "significance": self.significance,
                "steps": self.steps,
            },
            "arrays": arrays,
        }

    def set_state(self, state: Dict[str, Any]) -> "StreamingMonitor":
        """Restore a :meth:`get_state` snapshot (bit-identical round trip)."""
        meta = state["meta"]
        if meta.get("kind") != "monitor":
            raise ValueError(
                f"state was saved by {meta.get('kind')!r}, not a streaming monitor"
            )
        if int(meta["window"]) != self.window:
            raise ValueError(
                f"state has window {meta['window']}, monitor expects {self.window}"
            )
        self.significance = float(meta["significance"])
        self.steps = int(meta["steps"])
        arrays = state["arrays"]
        for label, stat in self._stats().items():
            stat.set_state(
                {
                    key: arrays[f"monitor.{label}.{key}"]
                    for key in ("values", "pos", "count", "sum")
                }
            )
        return self
