"""L-BFGS for the temperature-scaling calibration stage.

The paper (Section IV-C3) optimizes the single temperature parameter ``T``
with Limited-memory BFGS.  :func:`minimize_scalar_lbfgs` minimizes that
scalar objective with SciPy's reference implementation; the calibration
module calls it, since the objective is a cheap closed-form function of
cached predictions.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np
from scipy import optimize


def minimize_scalar_lbfgs(
    objective: Callable[[float], Tuple[float, float]],
    x0: float,
    max_iter: int = 500,
) -> float:
    """Minimize a differentiable scalar objective with SciPy's L-BFGS-B.

    Parameters
    ----------
    objective:
        Callable returning ``(value, gradient)`` at a scalar point.
    x0:
        Starting point.

    Returns
    -------
    float
        The minimizing argument.
    """

    def fun(x: np.ndarray) -> Tuple[float, np.ndarray]:
        value, gradient = objective(float(x[0]))
        return value, np.array([gradient])

    result = optimize.minimize(
        fun, x0=np.array([x0]), jac=True, method="L-BFGS-B", options={"maxiter": max_iter}
    )
    return float(result.x[0])
