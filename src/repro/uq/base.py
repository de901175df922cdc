"""Common scaffolding for the uncertainty-quantification methods."""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.inference import PredictionResult
from repro.core.trainer import TrainingConfig
from repro.data.datasets import SlidingWindowDataset, TrafficData
from repro.data.scalers import StandardScaler
from repro.models.base import ForecastModel
from repro.models.registry import backbone_info, create_backbone
from repro.utils.serialization import pack_state_arrays, unpack_state_arrays


class UQMethod:
    """Base class: an uncertainty-aware forecaster over a fixed road network.

    Sub-classes set the class attributes ``name``, ``paradigm``,
    ``uncertainty_type`` (the Table II taxonomy) and ``required_heads`` (the
    decoder heads their loss needs), implement :meth:`fit` and
    :meth:`predict`, and typically build their backbone through
    :meth:`_build_backbone`.

    The backbone is configuration, not code: every method defaults to the
    paper's shared AGCRN architecture, but any name from
    :data:`repro.models.registry.BACKBONE_INFO` can be requested instead
    (``backbone="DCRNN"`` plus an ``adjacency`` matrix, for example).
    Backbones without native head support are wrapped in a
    :class:`~repro.models.heads.HeadAdapter` so ``required_heads`` is always
    satisfied.
    """

    name: str = "abstract"
    paradigm: str = "abstract"
    uncertainty_type: str = "none"
    #: Whether the predictive distribution is Gaussian (MNLL is meaningful).
    gaussian_likelihood: bool = True
    #: Decoder heads the method's loss/predict contract needs.
    required_heads: Tuple[str, ...] = ("mean",)

    #: ``_rng`` only seeds weight *initialization*; the checkpointed weights
    #: already encode its effect, and predict-time draws use per-call
    #: generators, so a restored instance never consults it.
    _CHECKPOINT_EXEMPT = ("_rng",)

    def __init__(
        self,
        num_nodes: int,
        config: Optional[TrainingConfig] = None,
        rng: Optional[np.random.Generator] = None,
        backbone: str = "AGCRN",
        backbone_kwargs: Optional[Dict[str, Any]] = None,
        adjacency: Optional[np.ndarray] = None,
    ) -> None:
        self.num_nodes = num_nodes
        self.config = config if config is not None else TrainingConfig()
        self._rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        info = backbone_info(backbone)
        if not info.trainable:
            raise ValueError(
                f"backbone {info.name!r} has no trainable parameters and cannot "
                f"be trained by {self.name}; use it directly via "
                "repro.models.create_backbone for naive-reference forecasts"
            )
        self.backbone_name = info.name
        self.backbone_kwargs = dict(backbone_kwargs) if backbone_kwargs else {}
        self.adjacency = (
            np.asarray(adjacency, dtype=np.float64) if adjacency is not None else None
        )
        self.scaler: Optional[StandardScaler] = None
        self.fitted = False

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _fit_scaler(self, train_data: TrafficData) -> StandardScaler:
        self.scaler = StandardScaler().fit(train_data.values)
        return self.scaler

    def _windows(self, data: TrafficData) -> Tuple[np.ndarray, np.ndarray]:
        """All sliding ``(inputs, targets)`` windows of a traffic series."""
        dataset = SlidingWindowDataset(
            data, history=self.config.history, horizon=self.config.horizon
        )
        return dataset.arrays()

    def _scale_inputs(self, histories: np.ndarray) -> np.ndarray:
        """Standardize raw history windows, refusing before the scaler exists."""
        if self.scaler is None:
            raise RuntimeError(f"{self.name} must be fitted before predicting")
        return self.scaler.transform(np.asarray(histories, dtype=np.float64))

    def _check_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError(f"{self.name} must be fitted before predicting")

    def _build_backbone(self, heads: Optional[Sequence[str]] = None) -> ForecastModel:
        """The configured base model with the requested (or required) heads."""
        return create_backbone(
            self.backbone_name,
            num_nodes=self.num_nodes,
            config=self.config,
            heads=tuple(heads) if heads is not None else self.required_heads,
            adjacency=self.adjacency,
            rng=self._rng,
            **self.backbone_kwargs,
        )

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "UQMethod":
        """Train on the training split (and calibrate on the validation split)."""
        raise NotImplementedError

    def predict(self, histories: np.ndarray) -> PredictionResult:
        """Probabilistic forecast for raw history windows (original scale)."""
        raise NotImplementedError

    def predict_on(self, data: TrafficData, **kwargs):
        """Forecast every sliding window of ``data``; returns (result, targets).

        Keyword arguments are forwarded to :meth:`predict` (e.g.
        ``num_samples`` for the Monte-Carlo methods).
        """
        inputs, targets = self._windows(data)
        return self.predict(inputs, **kwargs), targets

    def serve(self, model_version: Optional[str] = None, **kwargs):
        """Build an (unstarted) :class:`~repro.serving.InferenceServer` over this method.

        Keyword arguments are forwarded to the server constructor
        (``max_batch_size``, ``max_wait_ms``, ``cache_size``, ``num_workers``).
        """
        self._check_fitted()
        from repro.serving import serve_method

        return serve_method(self, model_version=model_version, **kwargs)

    # ------------------------------------------------------------------ #
    # Full-state checkpointing
    # ------------------------------------------------------------------ #
    def get_state(self) -> Dict[str, Any]:
        """Everything a fresh instance needs to reproduce :meth:`predict`.

        Returns ``{"meta": <JSON-able scalars>, "arrays": <named ndarrays>}``.
        The base implementation covers the fitted scaler and the single
        ``self.model`` backbone; methods with extra inference state
        (temperature, conformal quantiles, ensemble members, snapshots)
        extend both parts in their overrides.
        """
        self._check_fitted()
        meta: Dict[str, Any] = {
            "method": self.name,
            "backbone": self.backbone_name,
            "fitted": True,
        }
        if self.scaler is not None:
            meta["scaler"] = {"mean": self.scaler.mean_, "std": self.scaler.std_}
        arrays: Dict[str, np.ndarray] = {}
        model = getattr(self, "model", None)
        if model is not None:
            arrays.update(pack_state_arrays("model.", model.state_dict()))
        return {"meta": meta, "arrays": arrays}

    def set_state(self, state: Dict[str, Any]) -> "UQMethod":
        """Restore a :meth:`get_state` snapshot into this (configured) instance.

        The instance must have been constructed with the same configuration
        (heads, backbone, architecture hyper-parameters) as the saved one;
        the method and backbone names are validated, and weight loading
        rejects mismatched parameter sets.
        """
        meta = state["meta"]
        arrays = state["arrays"]
        self._check_saved_method(meta)
        saved_backbone = meta.get("backbone", self.backbone_name)
        if saved_backbone != self.backbone_name:
            raise ValueError(
                f"state was saved with backbone {saved_backbone!r}, "
                f"cannot restore into {self.backbone_name!r}"
            )
        scaler_meta = meta.get("scaler")
        if scaler_meta is not None:
            self.scaler = StandardScaler()
            self.scaler.mean_ = float(scaler_meta["mean"])
            self.scaler.std_ = float(scaler_meta["std"])
        model_state = unpack_state_arrays("model.", arrays)
        if model_state:
            if getattr(self, "model", None) is None:
                self.model = self._make_model_for_state()
            self.model.load_state_dict(model_state)
        self.fitted = bool(meta.get("fitted", True))
        return self

    def _check_saved_method(self, meta: Dict[str, Any]) -> None:
        """Reject state snapshots taken by a different UQ method."""
        if meta.get("method") != self.name:
            raise ValueError(
                f"state was saved by method {meta.get('method')!r}, "
                f"cannot restore into {self.name!r}"
            )

    def _make_model_for_state(self) -> ForecastModel:
        """Build the (untrained) model that :meth:`set_state` loads weights into."""
        return self._build_backbone()

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__name__}(paradigm={self.paradigm!r}, "
            f"uncertainty={self.uncertainty_type!r}, backbone={self.backbone_name!r})"
        )
