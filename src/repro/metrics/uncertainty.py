"""Uncertainty-quantification metrics (paper Eqs. 23-26).

All functions operate on NumPy arrays in the original data scale.  Predictive
distributions are summarized by a mean and a standard deviation; interval
metrics use the Gaussian 95% interval ``mean +- 1.96 sigma`` unless explicit
bounds are supplied.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, Union

import numpy as np

#: z-score of the 97.5th percentile of the standard normal (95% interval).
Z_95 = 1.959963984540054

# Acklam's rational approximation of the standard-normal quantile function,
# refined below to full double precision; coefficients from Peter Acklam's
# "An algorithm for computing the inverse normal cumulative distribution
# function" (2003).
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_PPF_P_LOW = 0.02425

_erfc = np.frompyfunc(math.erfc, 1, 1)
_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _acklam(p: np.ndarray) -> np.ndarray:
    """Acklam's piecewise-rational initial estimate (|error| < 1.2e-9)."""
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    x = np.empty_like(p)
    # Lower tail, central region and (by symmetry) upper tail.
    low = p < _PPF_P_LOW
    high = p > 1.0 - _PPF_P_LOW
    central = ~(low | high)
    if low.any():
        q = np.sqrt(-2.0 * np.log(p[low]))
        x[low] = (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if high.any():
        q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
        x[high] = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if central.any():
        q = p[central] - 0.5
        r = q * q
        x[central] = (
            ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        ) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    return x


def norm_ppf(p: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Standard-normal quantile function (inverse CDF), pure NumPy.

    Replaces ``scipy.stats.norm.ppf`` on the serving hot path: Acklam's
    rational approximation followed by two Halley refinement steps against
    the exact CDF (via ``erfc``), which lands within a few ULP of the SciPy
    values (the golden tests pin agreement to 1e-12).
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.size and (np.any(arr <= 0.0) | np.any(arr >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    flat = np.atleast_1d(arr).ravel()
    # Reflect the upper half through ppf(p) = -ppf(1 - p): for p >= 0.5 the
    # subtraction 1 - p is exact (Sterbenz), and CDF(x) - p then never
    # suffers the 1 - tiny cancellation that would stall Halley's method.
    upper = flat > 0.5
    q = np.where(upper, 1.0 - flat, flat)
    x = _acklam(q.copy())
    for _ in range(2):
        # Halley's method on CDF(x) - q; erfc keeps the lower tail accurate.
        cdf = 0.5 * _erfc(-x / _SQRT_2).astype(np.float64)
        err = cdf - q
        u = err * _SQRT_2PI * np.exp(0.5 * x * x)
        x = x - u / (1.0 + 0.5 * x * u)
    x = np.where(upper, -x, x)
    if np.ndim(p) == 0:
        return float(x[0])
    return x.reshape(arr.shape)


def _validate(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    converted = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
    first = converted[0].shape
    for array in converted[1:]:
        if array.shape != first:
            raise ValueError(f"shape mismatch: {[a.shape for a in converted]}")
    return converted


def conformal_quantile_level(
    n: Union[int, np.ndarray], significance: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Finite-sample corrected conformal quantile level.

    ``ceil((n + 1)(1 - alpha)) / n``, capped at 1 — the level at which the
    empirical quantile of ``n`` nonconformity scores yields the
    distribution-free ``1 - alpha`` coverage guarantee.  Shared by the batch
    conformal methods (Conformal, CFRNN) and the streaming ACI calibrator so
    the correction can never diverge between them.  Elementwise over arrays
    (the calibrator evaluates every stream and horizon at once); a float for
    scalars.
    """
    count = np.asarray(n)
    if np.any(count < 1):
        raise ValueError("n must be >= 1")
    level = np.minimum(np.ceil((count + 1) * (1.0 - significance)) / count, 1.0)
    return float(level) if level.ndim == 0 else level


def interval_bounds(
    mean: np.ndarray, std: np.ndarray, significance: float = 0.05
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian central prediction interval at level ``1 - significance``.

    For the paper's 95% intervals (``alpha = 5%``) the bounds are
    ``mean +- 1.96 sigma`` (Section V-D2b).
    """
    mean, std = _validate(mean, std)
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie in (0, 1)")
    if np.any(std < 0):
        raise ValueError("std must be non-negative")
    z = norm_ppf(1.0 - significance / 2.0)
    return mean - z * std, mean + z * std


def mnll(target: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """Mean negative Gaussian log-likelihood (Eq. 23)."""
    target, mean, variance = _validate(target, mean, variance)
    variance = np.maximum(variance, 1e-6)
    nll = 0.5 * (np.log(2.0 * np.pi * variance) + (target - mean) ** 2 / variance)
    return float(np.mean(nll))


def picp(target: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Prediction-interval coverage probability, in percent (Eqs. 24-25)."""
    target, lower, upper = _validate(target, lower, upper)
    covered = (target >= lower) & (target <= upper)
    return float(np.mean(covered) * 100.0)


def mpiw(lower: np.ndarray, upper: np.ndarray) -> float:
    """Mean prediction-interval width (Eq. 26)."""
    lower, upper = _validate(lower, upper)
    if np.any(upper < lower):
        raise ValueError("upper bounds must not be smaller than lower bounds")
    return float(np.mean(upper - lower))


def winkler_score(  # repro: noqa[unused/symbol] reference for tests/streaming/test_monitor_drift.py
    target: np.ndarray, lower: np.ndarray, upper: np.ndarray, significance: float = 0.05
) -> float:
    """Winkler / interval score: width plus a penalty for missed coverage.

    Lower is better; proper scoring rule for central intervals.
    """
    target, lower, upper = _validate(target, lower, upper)
    width = upper - lower
    below = (lower - target) * (target < lower)
    above = (target - upper) * (target > upper)
    return float(np.mean(width + (2.0 / significance) * (below + above)))


def uncertainty_metrics(
    target: np.ndarray,
    mean: np.ndarray,
    std: np.ndarray,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    significance: float = 0.05,
) -> Dict[str, float]:
    """MNLL / PICP / MPIW bundle used by the Table IV benchmark.

    If explicit bounds are not given they are derived from the Gaussian
    assumption; distribution-free methods (quantile regression, CFRNN) pass
    their own bounds and report ``MNLL = nan``.
    """
    target, mean, std = _validate(target, mean, std)
    if lower is None or upper is None:
        lower, upper = interval_bounds(mean, std, significance)
        log_likelihood = mnll(target, mean, std ** 2)
    else:
        target, lower, upper = _validate(target, lower, upper)
        log_likelihood = mnll(target, mean, std ** 2) if np.all(std > 0) else float("nan")
    return {
        "MNLL": log_likelihood,
        "PICP": picp(target, lower, upper),
        "MPIW": mpiw(lower, upper),
    }
