"""Feature scalers fit on the training split only.

Traffic models are trained on standardized flows; predictions (means and
standard deviations) are mapped back to the original scale before computing
metrics, exactly as in the AGCRN/DeepSTUQ reference implementations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class StandardScaler:
    """Zero-mean / unit-variance scaling with variance-aware inversion.

    ``inverse_transform_var`` maps a predicted variance back to the data
    scale (multiplication by the fitted variance), which is what the
    uncertainty-quantification pipeline needs for interval metrics.
    """

    def __init__(self) -> None:
        self.mean_: Optional[float] = None
        self.std_: Optional[float] = None

    def fit(self, values: np.ndarray) -> "StandardScaler":
        values = np.asarray(values, dtype=np.float64)
        self.mean_ = float(values.mean())
        std = float(values.std())
        self.std_ = std if std > 1e-12 else 1.0
        return self

    def _check_fitted(self) -> None:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("scaler must be fitted before use")

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return (np.asarray(values, dtype=np.float64) - self.mean_) / self.std_

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return np.asarray(values, dtype=np.float64) * self.std_ + self.mean_

    def inverse_transform_var(self, var: np.ndarray) -> np.ndarray:
        """Map variances from scaled space back to data space."""
        self._check_fitted()
        return np.asarray(var, dtype=np.float64) * (self.std_ ** 2)
