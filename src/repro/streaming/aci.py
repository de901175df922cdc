"""Per-horizon adaptive conformal inference for streaming forecasts.

The batch conformal method (:class:`~repro.uq.conformal.LocallyWeightedConformal`)
fixes one nonconformity quantile on a static calibration split; under
distribution shift that frozen quantile silently loses coverage.
:class:`AdaptiveConformalCalibrator` keeps the calibration *online*: every
resolved observation updates (per step-ahead horizon)

* a ring buffer of recent locally-weighted nonconformity scores
  ``r = |y - mu| / sigma``, and
* in ``"aci"`` mode, the Gibbs & Candes (2021) adaptive significance level
  ``alpha_{t+1} = alpha_t + gamma * (alpha - err_t)``, where ``err_t`` is the
  realized miscoverage of the interval that was actually emitted.

Three modes cover the streaming experiments:

``"static"``
    Split-conformal baseline: scores accumulate until the buffer first
    fills, then freeze — the behaviour whose coverage degrades under drift.
``"rolling"``
    The rolling-nonconformity-score variant: fixed ``alpha``, quantile over
    the sliding score window, so the width tracks the recent residual scale.
``"aci"``
    Rolling scores *plus* the adaptive ``alpha_t`` update, the full adaptive
    conformal inference scheme (fastest recovery after a regime shift).

Intervals are emitted through the shared Gaussian interface exactly like the
batch conformal method: the per-horizon half-width ``q_h * sigma`` is folded
back into a pseudo standard deviation so ``mean +- 1.96 * std`` reproduces
the conformal interval.

Methods that carry **native asymmetric bounds** on their
:class:`~repro.core.inference.PredictionResult` (quantile regression, CFRNN)
are calibrated in *bound space* instead (conformalized quantile regression,
Romano et al. 2019): the nonconformity score is ``max(lower - y, y - upper)``
and the emitted interval is ``[lower - m_h, upper + m_h]`` with the additive
per-horizon margin ``m_h`` tracking the stream — the lower and upper offsets
stay independently placed rather than being collapsed into a symmetric
pseudo-std interval.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import groupby
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.inference import PredictionResult
from repro.metrics.uncertainty import Z_95, conformal_quantile_level, norm_ppf
from repro.utils.serialization import load_checkpoint, save_checkpoint

#: Recognized calibration modes.
ACI_MODES = ("static", "rolling", "aci")

#: Recognized interval-shape modes: symmetric scaled intervals, native
#: (asymmetric, CQR-style) bound calibration, or auto-detection from the
#: first forecast's :attr:`PredictionResult.has_native_bounds`.
ACI_INTERVAL_MODES = ("scaled", "native", "auto")

#: On-disk format revision of :meth:`AdaptiveConformalCalibrator.save`.
ACI_FORMAT_VERSION = 1


def conformal_levels(
    calibrators: Sequence["AdaptiveConformalCalibrator"], native: bool
) -> np.ndarray:
    """Current per-horizon multipliers (or native margins) of many calibrators.

    Returns ``(calibrators, horizon)``: row ``i`` is what
    ``calibrators[i].quantiles()`` (``native=False``) or ``.margins()``
    (``native=True``) reads.  A horizon with at least ``min_scores``
    buffered scores reads the finite-sample-corrected empirical quantile of
    its sorted mirror at level ``1 - alpha_t``; below that a scaled
    calibrator falls back to the Gaussian multiplier and a native one to a
    zero margin.

    The warm quantiles are one array expression over every calibrator and
    horizon, bit-identical to ``np.quantile(scores, level)`` (the default
    ``linear`` method), including NumPy's symmetric lerp
    ``b - (b - a) * (1 - t)`` when the fractional part is >= 0.5.  Only the
    two neighbouring order statistics are read per entry, from the sorted
    mirrors.  The Gaussian fallback stays one scalar ``norm_ppf`` per
    entry: it only runs while a stream warms up.
    """
    alpha = np.stack([calibrator.alpha_t for calibrator in calibrators])
    count = np.stack([calibrator._count for calibrator in calibrators])
    min_scores = np.array([calibrator.config.min_scores for calibrator in calibrators])
    warm = count >= min_scores[:, None]
    levels = np.zeros(alpha.shape, dtype=np.float64)
    if warm.any():
        # Boolean masks read and write in np.nonzero's order; (rows, cols)
        # fancy indexing would release the interpreter lock.
        rows, cols = np.nonzero(warm)
        n = count[warm]
        corrected = conformal_quantile_level(n, alpha[warm])
        position = np.minimum(np.maximum(corrected, 0.0), 1.0) * (n - 1)
        low = position.astype(np.int64)
        t = position - low
        below, above = [], []
        for row, col, index in zip(rows.tolist(), cols.tolist(), low.tolist()):
            ordered = calibrators[row]._sorted[col]
            below.append(ordered[index])
            above.append(ordered[index + 1] if index + 1 < len(ordered) else ordered[index])
        a = np.array(below, dtype=np.float64)
        b = np.array(above, dtype=np.float64)
        blend = np.where(t >= 0.5, b - (b - a) * (1.0 - t), a + (b - a) * t)
        levels[warm] = np.where((t == 0.0) | (low + 1 >= n), a, blend)
    if not native:
        for row, col in zip(*np.nonzero(~warm)):
            levels[row, col] = norm_ppf(0.5 + (1.0 - alpha[row, col]) / 2.0)
    return levels


def native_bounds(
    calibrators: Sequence["AdaptiveConformalCalibrator"],
    result: PredictionResult,
    scale: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The bounds native-mode nonconformity is scored and margined against.

    ``result`` stacks one equal share of windows per calibrator and
    ``scale`` is its :meth:`AdaptiveConformalCalibrator._scale`.  These are
    the method's own bounds when it supplies them; otherwise (a
    Gaussian-bound model meeting a native-latched calibrator, e.g. a refit
    candidate of a different family trialed on a quantile stream) they are
    per-horizon Gaussian bounds at level ``1 - alpha_t``, synthesized from
    the predictive std, so the additive (data-unit) margins stay
    unit-consistent instead of being misread as multipliers.
    """
    if result.has_native_bounds:
        return result.lower, result.upper
    per = result.mean.shape[0] // len(calibrators)
    z = np.array(
        [
            [norm_ppf(0.5 + (1.0 - alpha) / 2.0) for alpha in calibrator.alpha_t]
            for calibrator in calibrators
        ]
    )
    half = np.repeat(z, per, axis=0)[:, :, None] * scale
    return result.mean - half, result.mean + half


def calibrated_bounds(
    calibrators: Sequence["AdaptiveConformalCalibrator"],
    result: PredictionResult,
    scale: np.ndarray,
    reference: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Width-adapted ``(lower, upper)`` bounds of a stacked result.

    ``result`` stacks one equal share of windows per calibrator.  Scaled
    calibrators (``reference=None``) emit ``mean ± q_h * scale``; native
    ones widen (or shrink) the ``reference`` bounds from
    :func:`native_bounds` by their additive margins.
    """
    per = result.mean.shape[0] // len(calibrators)
    if reference is not None:
        margin = np.repeat(conformal_levels(calibrators, native=True), per, axis=0)[:, :, None]
        lower = reference[0] - margin
        upper = reference[1] + margin
        # A strongly negative margin could cross the bounds; clamp at the
        # midpoint so the interval degenerates rather than inverts.
        mid = 0.5 * (lower + upper)
        return np.minimum(lower, mid), np.maximum(upper, mid)
    half = np.repeat(conformal_levels(calibrators, native=False), per, axis=0)[:, :, None] * scale
    return result.mean - half, result.mean + half


def fold_bounds(
    result: PredictionResult, lower: np.ndarray, upper: np.ndarray, native: bool
) -> PredictionResult:
    """``result`` with calibrated bounds folded in (see :meth:`~AdaptiveConformalCalibrator.calibrate`)."""
    if native:
        return result.replace_interval_bounds(lower, upper)
    return result.replace_interval_std((upper - lower) / (2.0 * Z_95))


def nonconformity(
    observed: np.ndarray,
    mean: np.ndarray,
    scale: np.ndarray,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    native: Union[bool, np.ndarray] = False,
) -> np.ndarray:
    """Per-entry nonconformity scores, elementwise over aligned arrays.

    Entries flagged ``native`` (all of them for ``True``, or a boolean mask)
    score against the method's own bounds, ``max(lower - y, y - upper)``
    (the CQR score); the rest use the locally-weighted residual
    ``|y - mean| / scale``.  Without bounds every entry is scaled.
    """
    if lower is None or upper is None or not np.any(native):
        return np.abs(observed - mean) / scale
    if np.all(native):
        return np.maximum(lower - observed, observed - upper)
    scores = np.empty(observed.shape, dtype=np.float64)
    scores[native] = np.maximum(lower[native] - observed[native], observed[native] - upper[native])
    scaled = ~native
    scores[scaled] = np.abs(observed[scaled] - mean[scaled]) / scale[scaled]
    return scores


def update_many(
    calibrators: Sequence["AdaptiveConformalCalibrator"],
    owners: Sequence[int],
    horizons: Sequence[int],
    scores: np.ndarray,
    lengths: Sequence[int],
    miscoverage: np.ndarray,
    locks: Optional[Sequence[Any]] = None,
) -> None:
    """Fold resolved horizon rows into their calibrators in one pass.

    Row ``k`` belongs to ``calibrators[owners[k]]`` at step-ahead
    ``horizons[k]``; its nonconformity scores are the next ``lengths[k]``
    entries of the flat ``scores``, and ``miscoverage[k]`` is the realized
    miscoverage of the interval emitted for it (NaN: none observed).
    Non-finite scores are dropped, the ``"aci"`` ``alpha_t`` updates are one
    array expression over every row, and each row's scores then enter its
    ring and sorted mirror in order, a scalar loop by nature.  A
    ``(calibrator, horizon)`` pair that repeats is folded one row at a time,
    so the result is always that of the rows applied in order.

    With ``locks``, calibrator ``i``'s mutations run under ``locks[i]``,
    one lock at a time.  Each row's ``alpha_t``, ring cursor, fill and
    freeze flag are read before and written under it, so the calibrators
    need a single writer (the loop that resolves them); readers that take
    the lock see whole rows.
    """
    owners = np.asarray(owners, dtype=np.intp).reshape(-1)
    horizons = np.asarray(horizons, dtype=np.intp).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.intp).reshape(-1)
    miscoverage = np.asarray(miscoverage, dtype=np.float64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    limits = np.array([calibrator.horizon for calibrator in calibrators])[owners]
    bad = np.flatnonzero((horizons < 0) | (horizons >= limits))
    if bad.size:
        raise IndexError(
            f"horizon index {horizons[bad[0]]} out of range for horizon {limits[bad[0]]}"
        )
    if not owners.size:
        return
    # A set, not np.unique / np.sort, which release the interpreter lock
    # (see repro.streaming.shard).
    keys = (owners * (int(limits.max()) + 1) + horizons).tolist()
    if len(set(keys)) < len(keys):
        ends = np.cumsum(lengths)
        for k in range(owners.size):
            update_many(
                calibrators, owners[k : k + 1], horizons[k : k + 1],
                scores[ends[k] - lengths[k] : ends[k]], lengths[k : k + 1],
                miscoverage[k : k + 1], locks,
            )
        return
    finite = np.isfinite(scores)
    if not finite.all():
        kept = np.concatenate(([0], np.cumsum(finite)))
        ends = np.cumsum(lengths)
        lengths = kept[ends] - kept[ends - lengths]
        scores = scores[finite]

    configs = [calibrator.config for calibrator in calibrators]
    adaptive = np.array(
        [config.mode == "aci" and config.gamma > 0.0 for config in configs], dtype=bool
    )[owners] & ~np.isnan(miscoverage)
    alpha: List[Optional[float]] = [None] * owners.size
    moved = np.flatnonzero(adaptive)
    if moved.size:
        row_owners = owners[moved]
        gamma = np.array([config.gamma for config in configs])[row_owners]
        significance = np.array([config.significance for config in configs])[row_owners]
        clip = np.array([config.alpha_clip for config in configs])[row_owners]
        current = np.array(
            [
                calibrators[owner].alpha_t[h]
                for owner, h in zip(row_owners.tolist(), horizons[moved].tolist())
            ],
            dtype=np.float64,
        )
        updated = np.clip(
            current + gamma * (significance - miscoverage[moved]), clip, 1.0 - clip
        )
        for k, value in zip(moved.tolist(), updated.tolist()):
            alpha[k] = value

    # Each row's ring cursor, fill and freeze flag, read in one pass.
    first_slot = np.cumsum([0] + [calibrator.horizon for calibrator in calibrators])
    slots = first_slot[owners] + horizons
    cursors = np.concatenate([c._pos for c in calibrators])[slots].tolist()
    fills = np.concatenate([c._count for c in calibrators])[slots].tolist()
    frozen = np.concatenate([c._frozen for c in calibrators])[slots].tolist()
    values = scores.tolist()
    ends = np.cumsum(lengths).tolist()
    starts = (np.cumsum(lengths) - lengths).tolist()
    owner_list, horizon_list = owners.tolist(), horizons.tolist()
    for owner, run in groupby(range(len(owner_list)), key=owner_list.__getitem__):
        rows = list(run)
        calibrator = calibrators[owner]
        window = calibrator.config.window
        with locks[owner] if locks is not None else nullcontext():
            calibrator.updates += len(rows)
            for row in rows:
                h = horizon_list[row]
                if alpha[row] is not None:
                    calibrator.alpha_t[h] = alpha[row]
                start, end = starts[row], ends[row]
                if start == end or frozen[row]:
                    continue
                start = max(start, end - window)
                n, pos, count = end - start, cursors[row], fills[row]
                ring = calibrator._scores[h]
                cells = (
                    slice(pos, pos + n)
                    if pos + n <= window
                    else np.array([(pos + i) % window for i in range(n)])
                )
                # Sorted-mirror maintenance: each insert evicts the oldest
                # score once the window is full, removing it from the sorted
                # list by bisect before the replacement is insort-ed back
                # in.  The n <= window cells are distinct, so every evicted
                # score is read before the row's ring writes.
                mirror = calibrator._sorted[h]
                free = window - count
                if n > free:
                    evicted = ring[cells].tolist()
                    for index in range(n):
                        if index >= free:
                            mirror.pop(bisect_left(mirror, evicted[index]))
                        insort(mirror, values[start + index])
                else:
                    for index in range(start, end):
                        insort(mirror, values[index])
                ring[cells] = scores[start:end]
                count = min(count + n, window)
                calibrator._pos[h] = (pos + n) % window
                calibrator._count[h] = count
                if count == window and calibrator.config.mode == "static":
                    # Split-conformal baseline: calibration set fixed once full.
                    calibrator._frozen[h] = True


@dataclass
class ACIConfig:
    """Knobs of the online conformal calibrator.

    Parameters
    ----------
    significance:
        Target miscoverage level ``alpha`` (0.05 for 95% intervals).
    gamma:
        Learning rate of the ``alpha_t`` update (``"aci"`` mode only).
    window:
        Ring-buffer capacity in *scores* per horizon (one observed sensor
        contributes one score), not in steps.
    min_scores:
        Below this many buffered scores the calibrator falls back to the
        Gaussian ``norm_ppf(1 - alpha_t / 2)`` multiplier.
    mode:
        One of :data:`ACI_MODES`.
    alpha_clip:
        ``alpha_t`` is clipped to ``[alpha_clip, 1 - alpha_clip]`` so the
        adaptive level can never saturate into a degenerate interval.
    interval_mode:
        One of :data:`ACI_INTERVAL_MODES`.  ``"scaled"`` always emits
        symmetric ``mean ± q_h * sigma`` intervals; ``"native"`` calibrates
        the method's own asymmetric bounds with additive CQR margins;
        ``"auto"`` (default) picks per stream from the first forecast.
    """

    significance: float = 0.05
    gamma: float = 0.01
    window: int = 2000
    min_scores: int = 30
    mode: str = "aci"
    alpha_clip: float = 1e-3
    interval_mode: str = "auto"

    def __post_init__(self) -> None:
        if not 0.0 < self.significance < 1.0:
            raise ValueError("significance must lie in (0, 1)")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        if self.window < 1 or self.min_scores < 1:
            raise ValueError("window and min_scores must be >= 1")
        if self.mode not in ACI_MODES:
            raise ValueError(f"mode must be one of {ACI_MODES}, got {self.mode!r}")
        if self.interval_mode not in ACI_INTERVAL_MODES:
            raise ValueError(
                f"interval_mode must be one of {ACI_INTERVAL_MODES}, "
                f"got {self.interval_mode!r}"
            )


class AdaptiveConformalCalibrator:
    """Online per-horizon conformal calibration state.

    The calibrator wraps any UQ method's :class:`PredictionResult`: the
    method supplies the point forecast and the local scale ``sigma`` (its
    predictive std; methods without one fall back to unit scale, i.e. plain
    absolute-residual conformal), and the calibrator turns them into
    width-adapted intervals whose per-horizon multiplier tracks the stream.
    """

    #: ``_sorted`` is a derived mirror of the ``aci.scores`` ring:
    #: ``set_state`` rebuilds it from the restored buffers.
    _CHECKPOINT_EXEMPT = ("_sorted",)

    def __init__(self, horizon: int, config: Optional[ACIConfig] = None, **kwargs) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if config is not None and kwargs:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.horizon = int(horizon)
        self.config = config if config is not None else ACIConfig(**kwargs)
        cfg = self.config
        self.alpha_t = np.full(self.horizon, cfg.significance, dtype=np.float64)
        self._scores = np.zeros((self.horizon, cfg.window), dtype=np.float64)
        self._count = np.zeros(self.horizon, dtype=np.int64)
        self._pos = np.zeros(self.horizon, dtype=np.int64)
        self._frozen = np.zeros(self.horizon, dtype=bool)
        # Sorted mirror of each ring buffer (bisect insert/remove), so the
        # per-step quantile read is an O(1) index instead of an O(n log n)
        # re-sort of the whole window.
        self._sorted: List[List[float]] = [[] for _ in range(self.horizon)]
        # Resolved interval shape: None until "auto" has seen a forecast,
        # then latched (and persisted) so the buffered scores keep one
        # consistent interpretation — multipliers or additive margins.
        self._native: Optional[bool] = (
            None if cfg.interval_mode == "auto" else cfg.interval_mode == "native"
        )
        self.updates = 0

    # ------------------------------------------------------------------ #
    # Interval emission
    # ------------------------------------------------------------------ #
    def quantiles(self) -> np.ndarray:
        """Current per-horizon half-width multipliers ``q_h``.

        With enough buffered scores this is the finite-sample-corrected
        empirical quantile of the rolling nonconformity scores at level
        ``1 - alpha_t[h]``; before that it is the Gaussian multiplier at the
        same level, so early-stream intervals are sensible rather than empty.
        """
        return conformal_levels([self], native=False)[0]

    def margins(self) -> np.ndarray:  # repro: noqa[unused/symbol] tests/streaming/test_native_bounds.py
        """Current per-horizon *additive* margins ``m_h`` (native-bound mode).

        The CQR analogue of :meth:`quantiles`: the finite-sample-corrected
        empirical quantile of the buffered ``max(lower - y, y - upper)``
        scores at level ``1 - alpha_t[h]``.  Before ``min_scores`` the margin
        is zero, so early-stream intervals are the method's own bounds.
        Margins may be negative — CQR legitimately *shrinks* native bounds
        that prove too conservative on the stream.
        """
        return conformal_levels([self], native=True)[0]

    @staticmethod
    def _scale(result: PredictionResult) -> np.ndarray:
        """Local nonconformity scale: the predictive std, unit where zero."""
        std = result.std
        return np.where(std > 1e-12, std, 1.0)

    def uses_native(self, result: Optional[PredictionResult] = None) -> bool:
        """Whether this calibrator works in native-bound (asymmetric) space.

        In ``"auto"`` interval mode the answer is latched from the first
        forecast that reaches the calibrator; until then it is ``False``.
        """
        if self._native is None and result is not None:
            self._native = bool(result.has_native_bounds)
        return bool(self._native)

    def intervals(self, result: PredictionResult) -> Tuple[np.ndarray, np.ndarray]:
        """Width-adapted ``(lower, upper)`` bounds for a batch result."""
        if result.mean.shape[1] != self.horizon:
            raise ValueError(
                f"result has horizon {result.mean.shape[1]}, calibrator expects {self.horizon}"
            )
        scale = self._scale(result)
        reference = (
            native_bounds([self], result, scale) if self.uses_native(result) else None
        )
        return calibrated_bounds([self], result, scale, reference)

    def calibrate(self, result: PredictionResult) -> PredictionResult:
        """Result with the conformal interval folded back in.

        Scaled (symmetric) calibration folds the half-width into a pseudo
        std, so ``calibrated.interval()`` (the shared 95% Gaussian
        interface) reproduces the adaptive conformal bounds exactly.
        Native-bound calibration instead attaches the calibrated asymmetric
        bounds (``calibrated.lower`` / ``calibrated.upper``) — the Gaussian
        interface then sees the right *width* but not the asymmetric
        placement, which only bound-aware consumers preserve.
        """
        return self.fold(result, *self.intervals(result))

    def fold(
        self, result: PredictionResult, lower: np.ndarray, upper: np.ndarray
    ) -> PredictionResult:
        """:meth:`calibrate` with the bounds already computed.

        Lets the per-step hot path run :meth:`intervals` once and reuse its
        output, instead of re-deriving the per-horizon margins twice.
        """
        return fold_bounds(result, lower, upper, self.uses_native(result))

    # ------------------------------------------------------------------ #
    # Online updates
    # ------------------------------------------------------------------ #
    def update(
        self,
        horizon_index: int,
        scores: np.ndarray,
        miscoverage: Optional[float] = None,
    ) -> None:
        """Fold one resolved horizon row into the calibration state.

        A one-row :func:`update_many`.

        Parameters
        ----------
        horizon_index:
            Which step-ahead the scores belong to (0-based).
        scores:
            Nonconformity scores ``|y - mu| / sigma`` of the observed
            sensors (already masked; may be empty).
        miscoverage:
            Realized miscoverage ``err_t`` of the interval emitted for this
            row (fraction of observed sensors outside it); drives the
            ``alpha_t`` update in ``"aci"`` mode.
        """
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        update_many(
            [self],
            [0],
            [int(horizon_index)],
            scores,
            [scores.size],
            [np.nan if miscoverage is None else float(miscoverage)],
        )

    def reset_scores(self, keep_alpha: bool = True) -> None:
        """Drop the buffered scores (and any static freeze) for recalibration.

        Used by the drift-recovery path: after a confirmed regime change the
        pre-shift scores only slow adaptation down, so the buffers refill
        from post-shift data.  ``keep_alpha=False`` also resets ``alpha_t``.
        """
        self._scores[:] = 0.0
        self._count[:] = 0
        self._pos[:] = 0
        self._frozen[:] = False
        self._sorted = [[] for _ in range(self.horizon)]
        if not keep_alpha:
            self.alpha_t[:] = self.config.significance

    # ------------------------------------------------------------------ #
    # State protocol (matches UQMethod.get_state / set_state)
    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        """Full calibration state as ``{"meta": ..., "arrays": ...}``."""
        return {
            "meta": {
                "kind": "aci",
                "format_version": ACI_FORMAT_VERSION,
                "horizon": self.horizon,
                "updates": self.updates,
                "native": self._native,
                "config": asdict(self.config),
            },
            "arrays": {
                "aci.alpha_t": self.alpha_t.copy(),
                "aci.scores": self._scores.copy(),
                "aci.count": self._count.copy(),
                "aci.pos": self._pos.copy(),
                "aci.frozen": self._frozen.copy(),
            },
        }

    def set_state(self, state: Dict[str, Any]) -> "AdaptiveConformalCalibrator":
        """Restore a :meth:`get_state` snapshot (bit-identical round trip)."""
        meta = state["meta"]
        if meta.get("kind") != "aci":
            raise ValueError(f"state was saved by {meta.get('kind')!r}, not an ACI calibrator")
        if int(meta["horizon"]) != self.horizon:
            raise ValueError(
                f"state has horizon {meta['horizon']}, calibrator expects {self.horizon}"
            )
        if "native" not in meta:
            raise ValueError(
                "ACI state has no 'native' key: it predates native-bound support, "
                "which this build does not read"
            )
        self.config = ACIConfig(**meta["config"])
        self.updates = int(meta.get("updates", 0))
        if self.config.interval_mode != "auto":
            self._native = self.config.interval_mode == "native"
        else:
            native = meta["native"]
            self._native = None if native is None else bool(native)
        arrays = state["arrays"]
        self.alpha_t = np.asarray(arrays["aci.alpha_t"], dtype=np.float64).copy()
        self._scores = np.asarray(arrays["aci.scores"], dtype=np.float64).copy()
        self._count = np.asarray(arrays["aci.count"], dtype=np.int64).copy()
        self._pos = np.asarray(arrays["aci.pos"], dtype=np.int64).copy()
        self._frozen = np.asarray(arrays["aci.frozen"], dtype=bool).copy()
        self._sorted = [
            sorted(self._scores[h, : int(self._count[h])].tolist())
            for h in range(self.horizon)
        ]
        return self

    def save(self, directory: Union[str, Path]) -> Path:
        """Persist the calibration state as a directory checkpoint."""
        state = self.get_state()
        return save_checkpoint(Path(directory), state["meta"], state["arrays"])

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "AdaptiveConformalCalibrator":
        """Rebuild a calibrator from a :meth:`save` checkpoint directory."""
        meta, arrays = load_checkpoint(Path(directory))
        version = meta.get("format_version")
        if version != ACI_FORMAT_VERSION:
            raise ValueError(
                f"unsupported ACI checkpoint format {version!r} "
                f"(this build reads version {ACI_FORMAT_VERSION})"
            )
        calibrator = cls(int(meta["horizon"]), config=ACIConfig(**meta["config"]))
        calibrator.set_state({"meta": meta, "arrays": arrays})
        return calibrator

    def __repr__(self) -> str:
        return (
            f"AdaptiveConformalCalibrator(horizon={self.horizon}, "
            f"mode={self.config.mode!r}, alpha={self.config.significance}, "
            f"updates={self.updates})"
        )
