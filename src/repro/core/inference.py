"""Monte-Carlo inference and uncertainty decomposition (paper Eqs. 7 and 19).

At test time DeepSTUQ draws ``N_MC`` stochastic forward passes (MC dropout on
the AWA-averaged weights) and combines them into

* a predictive mean — the average of the sampled means (Eq. 19a);
* an **aleatoric** variance — the average of the sampled variances, divided
  by the calibration temperature (first term of Eq. 19b);
* an **epistemic** variance — the sample variance of the sampled means
  (second term of Eq. 19b).

The sampling axis is *embarrassingly parallel*: no operation in a forward
pass mixes rows of the batch, so all ``N_MC`` stochastic passes can be
evaluated in a single vectorized forward by folding the sample axis into the
batch dimension (see :class:`BatchedPredictor`).  A looped reference path is
retained.  For the same seed both paths draw bit-identical dropout masks, and
their outputs agree to rounding, which the equivalence tests in ``tests/uq``
assert to 1e-10 for every registered UQ method.

The helpers below operate on *scaled* model inputs and return a
:class:`PredictionResult` in the original data scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.scalers import StandardScaler
from repro.metrics.uncertainty import Z_95 as _Z_95, interval_bounds
from repro.models.base import ForecastModel
from repro.nn import inference
from repro.tensor import Tensor


@dataclass
class PredictionResult:
    """A probabilistic forecast in the original data scale.

    All arrays have shape ``(num_samples, horizon, num_nodes)``.

    ``lower`` / ``upper`` are optional **native interval bounds** — set by
    methods whose intervals are not symmetric Gaussian ``mean ± z * std``
    (quantile regression's pinball-loss heads, CFRNN's per-horizon conformal
    margins).  When present they carry the method's own asymmetric interval;
    downstream consumers that only understand the Gaussian interface keep
    working through ``std`` (the half-width is always folded into a pseudo
    standard deviation as well), while bound-aware consumers — the adaptive
    conformal layer — preserve the asymmetry.
    """

    mean: np.ndarray
    aleatoric_var: np.ndarray
    epistemic_var: np.ndarray
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.lower is None) != (self.upper is None):
            raise ValueError("native bounds need both lower and upper (or neither)")

    @property
    def total_var(self) -> np.ndarray:
        """Total predictive variance (Eq. 7): aleatoric + epistemic."""
        return self.aleatoric_var + self.epistemic_var

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.total_var, 0.0))

    @property
    def aleatoric_std(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.aleatoric_var, 0.0))

    @property
    def epistemic_std(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.epistemic_var, 0.0))

    @property
    def num_windows(self) -> int:
        return int(self.mean.shape[0])

    @property
    def has_native_bounds(self) -> bool:
        """Whether the method supplied its own (possibly asymmetric) bounds."""
        return self.lower is not None

    def __getitem__(self, index) -> "PredictionResult":
        """Slice along the window axis (ints are kept as length-1 batches)."""
        if isinstance(index, (int, np.integer)):
            index = slice(index, index + 1) if index != -1 else slice(-1, None)
        return PredictionResult(
            mean=self.mean[index],
            aleatoric_var=self.aleatoric_var[index],
            epistemic_var=self.epistemic_var[index],
            lower=self.lower[index] if self.lower is not None else None,
            upper=self.upper[index] if self.upper is not None else None,
        )

    def copy(self) -> "PredictionResult":
        """Deep copy (own arrays, not views into a larger batch result)."""
        return PredictionResult(
            mean=self.mean.copy(),
            aleatoric_var=self.aleatoric_var.copy(),
            epistemic_var=self.epistemic_var.copy(),
            lower=self.lower.copy() if self.lower is not None else None,
            upper=self.upper.copy() if self.upper is not None else None,
        )

    @staticmethod
    def concatenate(results: Sequence["PredictionResult"]) -> "PredictionResult":
        """Stitch per-window results back into one batch (serving layer)."""
        if not results:
            raise ValueError("cannot concatenate an empty sequence of results")
        bounded = all(r.lower is not None for r in results)
        return PredictionResult(
            mean=np.concatenate([r.mean for r in results], axis=0),
            aleatoric_var=np.concatenate([r.aleatoric_var for r in results], axis=0),
            epistemic_var=np.concatenate([r.epistemic_var for r in results], axis=0),
            lower=np.concatenate([r.lower for r in results], axis=0) if bounded else None,
            upper=np.concatenate([r.upper for r in results], axis=0) if bounded else None,
        )

    def interval(self, significance: float = 0.05) -> tuple:
        """Central Gaussian prediction interval at level ``1 - significance``."""
        return interval_bounds(self.mean, self.std, significance)

    def replace_interval_std(self, std: np.ndarray) -> "PredictionResult":
        """Return a copy whose total variance equals ``std ** 2`` (conformal methods)."""
        std = np.asarray(std, dtype=np.float64)
        return PredictionResult(
            mean=self.mean.copy(),
            aleatoric_var=std ** 2,
            epistemic_var=np.zeros_like(self.mean),
        )

    def replace_interval_bounds(
        self, lower: np.ndarray, upper: np.ndarray
    ) -> "PredictionResult":
        """Copy carrying explicit (possibly asymmetric) interval bounds.

        The half-width is also folded into a pseudo standard deviation so
        Gaussian-interface consumers see an interval of the right *width*;
        only bound-aware consumers see the asymmetric placement.
        """
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        pseudo_std = np.maximum(upper - lower, 0.0) / (2.0 * _Z_95)
        return PredictionResult(
            mean=self.mean.copy(),
            aleatoric_var=pseudo_std ** 2,
            epistemic_var=np.zeros_like(self.mean),
            lower=lower,
            upper=upper,
        )


def _sample_streams(rng: np.random.Generator, num_samples: int) -> List[np.random.Generator]:
    """One independent child generator per MC sample, derived from ``rng``.

    Both the looped and the folded path hand sample ``s`` the same generator
    ``streams[s]``, so the two paths consume identical mask randomness.
    """
    seeds = rng.integers(0, np.iinfo(np.int64).max, size=num_samples)
    return [np.random.default_rng(int(seed)) for seed in seeds]


def _chunks(total: int, batch_size: int):
    for start in range(0, total, batch_size):
        yield start, min(start + batch_size, total)


def _batched_forward(model: ForecastModel, inputs: np.ndarray, batch_size: int) -> Dict[str, np.ndarray]:
    """Run the model over ``inputs`` in mini-batches; returns stacked head outputs."""
    chunks: Dict[str, list] = {}
    for start, stop in _chunks(inputs.shape[0], batch_size):
        batch = Tensor(inputs[start:stop])
        output = model(batch)
        output = output if isinstance(output, dict) else {"mean": output}
        for name, tensor in output.items():
            chunks.setdefault(name, []).append(tensor.numpy())
    return {name: np.concatenate(parts, axis=0) for name, parts in chunks.items()}


class BatchedPredictor:
    """Vectorized Monte-Carlo inference engine over a fitted forecast model.

    The engine folds the MC sample axis into the batch dimension: an input
    chunk of ``b`` windows is tiled to ``(n_mc * b, history, nodes)`` — the
    first ``b`` rows are sample 0, the next ``b`` rows sample 1, and so on —
    and pushed through the model in **one** forward pass.  This is valid
    because no forward operation mixes batch rows, and it is exact (not just
    statistically equivalent) because every dropout layer draws sample ``s``'s
    mask slab from a dedicated per-sample random stream: the folded pass
    consumes exactly the random numbers the ``s``-th iteration of a
    sequential loop would consume, so the masks are bit-identical.  The
    arithmetic agrees to rounding: the graph convolution contracts each
    node's weights as one GEMM over all rows of a chunk, and a one-row chunk
    takes NumPy's matrix-vector path, which may round its last bit
    differently.  Head outputs are un-folded to
    ``(n_mc, b, horizon, nodes)`` and the Eq. 19 mean/variance decomposition
    collapses the sample axis with single NumPy reductions.

    The win is fixed-cost amortization: the recurrent encoder runs
    ``history * num_layers`` cell steps per forward, each a few dozen NumPy
    and BLAS calls whose set-up costs the same at any height, so a looped MC
    estimate pays those costs ``n_mc`` times while the folded pass pays them
    once on arrays ``n_mc`` times taller.  An AGCRN runs those steps as an
    in-place NumPy kernel under :func:`repro.nn.inference`, bit-identical to
    its Tensor-op encoder (see :class:`~repro.models.agcrn.AGCRN`).

    Parameters
    ----------
    model:
        A fitted model.  Every forward runs inside :func:`repro.nn.inference`
        with its own mask streams and writes nothing to the model, so one
        predictor (or many over one model) may serve concurrent calls.
    scaler:
        Maps scaled-space outputs back to the original data scale.
    temperature:
        Calibration temperature applied as ``sigma^2 / T^2`` (Eqs. 17-18).
    batch_size:
        Input windows per chunk.  The folded forward evaluates
        ``num_samples * batch_size`` rows at once, so memory grows linearly
        with the MC sample count.
    """

    def __init__(
        self,
        model: ForecastModel,
        scaler: StandardScaler,
        temperature: float = 1.0,
        batch_size: int = 256,
    ) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.model = model
        self.scaler = scaler
        self.temperature = float(temperature)
        self.batch_size = int(batch_size)

    # ------------------------------------------------------------------ #
    def deterministic(self, scaled_inputs: np.ndarray) -> PredictionResult:
        """Single deterministic forward pass (dropout off)."""
        with inference():
            outputs = _batched_forward(self.model, scaled_inputs, self.batch_size)
        mean = self.scaler.inverse_transform(outputs["mean"])
        if "log_var" in outputs:
            aleatoric = self.scaler.inverse_transform_var(
                np.exp(outputs["log_var"]) / (self.temperature ** 2)
            )
        else:
            aleatoric = np.zeros_like(mean)
        return PredictionResult(mean=mean, aleatoric_var=aleatoric, epistemic_var=np.zeros_like(mean))

    # ------------------------------------------------------------------ #
    def monte_carlo(
        self,
        scaled_inputs: np.ndarray,
        num_samples: int,
        rng: Optional[np.random.Generator] = None,
        vectorized: bool = True,
    ) -> PredictionResult:
        """MC dropout forecast with uncertainty decomposition (Eq. 19).

        ``vectorized=False`` selects the looped reference path; for the same
        ``rng`` both paths draw identical masks and agree to rounding.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        streams = _sample_streams(rng, num_samples)
        if vectorized:
            outputs = self._folded_forward(scaled_inputs, streams)
        else:
            outputs = self._looped_forward(scaled_inputs, streams)
        return self._decompose(outputs, num_samples)

    # ------------------------------------------------------------------ #
    def _folded_forward(
        self, scaled_inputs: np.ndarray, streams: List[np.random.Generator]
    ) -> Dict[str, np.ndarray]:
        """All samples of each chunk in one forward; returns (S, B, H, N) heads."""
        num_samples = len(streams)
        collected: Dict[str, list] = {}
        with inference(streams):
            for start, stop in _chunks(scaled_inputs.shape[0], self.batch_size):
                chunk = scaled_inputs[start:stop]
                folded = np.concatenate([chunk] * num_samples, axis=0)
                output = self.model(Tensor(folded))
                output = output if isinstance(output, dict) else {"mean": output}
                for name, tensor in output.items():
                    data = tensor.numpy()
                    collected.setdefault(name, []).append(
                        data.reshape((num_samples, chunk.shape[0]) + data.shape[1:])
                    )
        return {name: np.concatenate(parts, axis=1) for name, parts in collected.items()}

    def _looped_forward(
        self, scaled_inputs: np.ndarray, streams: List[np.random.Generator]
    ) -> Dict[str, np.ndarray]:
        """Sequential reference: one full pass per sample; returns (S, B, H, N)."""
        collected: Dict[str, list] = {}
        for stream in streams:
            with inference(stream):
                outputs = _batched_forward(self.model, scaled_inputs, self.batch_size)
            for name, data in outputs.items():
                collected.setdefault(name, []).append(data)
        return {name: np.stack(parts, axis=0) for name, parts in collected.items()}

    # ------------------------------------------------------------------ #
    def _decompose(self, outputs: Dict[str, np.ndarray], num_samples: int) -> PredictionResult:
        """Fused Eq. 19 decomposition: single reductions over the sample axis."""
        means = outputs["mean"]  # (S, B, H, N)
        mean_scaled = means.mean(axis=0)
        if num_samples > 1:
            epistemic_scaled = means.var(axis=0, ddof=1)
        else:
            epistemic_scaled = np.zeros_like(mean_scaled)
        if "log_var" in outputs:
            aleatoric_scaled = np.exp(outputs["log_var"]).mean(axis=0) / (self.temperature ** 2)
        else:
            aleatoric_scaled = np.zeros_like(mean_scaled)
        return PredictionResult(
            mean=self.scaler.inverse_transform(mean_scaled),
            aleatoric_var=self.scaler.inverse_transform_var(aleatoric_scaled),
            epistemic_var=self.scaler.inverse_transform_var(epistemic_scaled),
        )


def deterministic_forecast(
    model: ForecastModel,
    scaled_inputs: np.ndarray,
    scaler: StandardScaler,
    batch_size: int = 256,
) -> PredictionResult:
    """Single deterministic forward pass (dropout off) — DeepSTUQ/S and MVE.

    The aleatoric variance comes from the ``log_var`` head when present,
    otherwise it is zero; the epistemic variance is zero by construction.
    """
    predictor = BatchedPredictor(model, scaler, batch_size=batch_size)
    return predictor.deterministic(scaled_inputs)


def monte_carlo_forecast(
    model: ForecastModel,
    scaled_inputs: np.ndarray,
    scaler: StandardScaler,
    num_samples: int = 10,
    temperature: float = 1.0,
    batch_size: int = 256,
    rng: Optional[np.random.Generator] = None,
    vectorized: bool = True,
) -> PredictionResult:
    """Monte-Carlo dropout forecast with uncertainty decomposition (Eq. 19).

    Parameters
    ----------
    model:
        A model with dropout layers; they sample masks for this call only.
    num_samples:
        Number of stochastic forward passes ``N_MC`` (the paper uses 10).
    temperature:
        Calibration temperature ``T`` applied to the aleatoric variance as
        ``sigma^2 / T^2``, which is the scaling implied by the calibration
        likelihood (Eqs. 17-18); Eq. 19b of the paper abbreviates it as a
        ``1/T`` factor.
    vectorized:
        ``True`` (default) evaluates all samples in one folded forward pass
        per chunk; ``False`` runs the sequential per-sample loop.  Both paths
        draw identical masks for the same ``rng`` and agree to rounding.
    """
    predictor = BatchedPredictor(model, scaler, temperature=temperature, batch_size=batch_size)
    return predictor.monte_carlo(scaled_inputs, num_samples, rng=rng, vectorized=vectorized)


def ensemble_forecast(
    members: Sequence[ForecastModel],
    scaled_inputs: np.ndarray,
    scaler: StandardScaler,
    batch_size: int = 256,
) -> PredictionResult:
    """Gaussian-mixture fusion of independently trained ensemble members.

    Member forward passes stay separate (each member has its own weights) but
    the mixture moments — mean of means, mean of variances, variance of means
    — are fused into single reductions over the stacked member axis, the same
    shape of computation :class:`BatchedPredictor` uses for MC samples.
    """
    if not members:
        raise ValueError("ensemble_forecast requires at least one member")
    means, variances = [], []
    for model in members:
        result = BatchedPredictor(model, scaler, batch_size=batch_size).deterministic(scaled_inputs)
        means.append(result.mean)
        variances.append(result.aleatoric_var)
    stacked_means = np.stack(means, axis=0)  # (M, B, H, N)
    mean = stacked_means.mean(axis=0)
    aleatoric = np.stack(variances, axis=0).mean(axis=0)
    if len(members) > 1:
        epistemic = stacked_means.var(axis=0, ddof=1)
    else:
        epistemic = np.zeros_like(mean)
    return PredictionResult(mean=mean, aleatoric_var=aleatoric, epistemic_var=epistemic)
