"""The :class:`Forecaster` facade: spec in, fitted + checkpointable model out.

One declarative :class:`~repro.api.spec.ForecasterSpec` describes a
(backbone x UQ method x training config) combination; the facade builds it,
fits it, forecasts with it, and round-trips it through full-state directory
checkpoints::

    forecaster = Forecaster.from_spec({"method": "MCDO", "backbone": "DCRNN"})
    forecaster.fit(train, val).save("ckpt/")
    restored = Forecaster.load("ckpt/")          # bit-identical predictions
    server = restored.serve(max_batch_size=32)   # or InferenceServer.from_checkpoint

Graph-structured backbones need a road-network adjacency; ``fit`` takes it
from the training split's :class:`~repro.graph.road_network.RoadNetwork`, and
checkpoints persist it so a loaded forecaster never needs the dataset again.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.api.spec import ForecasterSpec
from repro.core.inference import PredictionResult
from repro.data.datasets import TrafficData
from repro.uq.base import UQMethod
from repro.uq.registry import create_method
from repro.utils.serialization import load_checkpoint, save_checkpoint

#: On-disk checkpoint format revision.
CHECKPOINT_FORMAT_VERSION = 1


class Forecaster:
    """Facade over one spec-described uncertainty-aware forecaster.

    Parameters
    ----------
    spec:
        A :class:`ForecasterSpec` or a dict accepted by
        :meth:`ForecasterSpec.from_dict`.
    num_nodes:
        Number of sensors; may be omitted and inferred from the training
        data at :meth:`fit` time.
    adjacency:
        Dense road-network adjacency for graph-structured backbones; may be
        omitted and taken from the training data's network at fit time.
    rng:
        Random generator for weight init and sampling (defaults to the
        training config's seed, exactly as the underlying methods do).
    """

    def __init__(
        self,
        spec: Union[ForecasterSpec, Dict[str, Any]],
        num_nodes: Optional[int] = None,
        adjacency: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.spec = ForecasterSpec.from_dict(spec)
        self.num_nodes = num_nodes
        self.adjacency = (
            np.asarray(adjacency, dtype=np.float64) if adjacency is not None else None
        )
        self._rng = rng
        self.method: Optional[UQMethod] = None
        self._stream = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(
        cls,
        spec: Union[ForecasterSpec, Dict[str, Any], str],
        num_nodes: Optional[int] = None,
        adjacency: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "Forecaster":
        """Build a facade from a spec object, dict, or JSON document."""
        if isinstance(spec, str):
            spec = ForecasterSpec.from_json(spec)
        return cls(spec, num_nodes=num_nodes, adjacency=adjacency, rng=rng)

    @property
    def fitted(self) -> bool:
        return self.method is not None and self.method.fitted

    def _check_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("the forecaster must be fitted (or loaded) before use")

    def _needs_adjacency(self) -> bool:
        from repro.models.registry import backbone_info

        return backbone_info(self.spec.backbone).requires_adjacency

    def _build_method(self) -> UQMethod:
        if self.num_nodes is None:
            raise RuntimeError(
                "num_nodes is unknown; pass it to the constructor or call fit() first"
            )
        if self.adjacency is None and self._needs_adjacency():
            raise RuntimeError(
                f"backbone {self.spec.backbone!r} needs an adjacency matrix; pass "
                "adjacency= or fit on a dataset whose network provides one"
            )
        self.method = create_method(
            self.spec.method,
            self.num_nodes,
            config=self.spec.training_config(),
            rng=self._rng,
            backbone=self.spec.backbone,
            backbone_kwargs=self.spec.backbone_kwargs,
            adjacency=self.adjacency,
            **self.spec.method_kwargs,
        )
        return self.method

    # ------------------------------------------------------------------ #
    # Training and inference
    # ------------------------------------------------------------------ #
    def fit(self, train_data: TrafficData, val_data: TrafficData) -> "Forecaster":
        """Build the spec-described method and train it on the given splits."""
        if self.num_nodes is None:
            self.num_nodes = train_data.num_nodes
        elif self.num_nodes != train_data.num_nodes:
            raise ValueError(
                f"forecaster is configured for {self.num_nodes} nodes but the "
                f"training data has {train_data.num_nodes}"
            )
        if self.adjacency is None and self._needs_adjacency():
            self.adjacency = train_data.network.adjacency_matrix()
        self._build_method()
        self.method.fit(train_data, val_data)
        return self

    def predict(self, histories: np.ndarray, **kwargs) -> PredictionResult:
        """Probabilistic forecast for raw history windows (original scale)."""
        self._check_fitted()
        return self.method.predict(histories, **kwargs)

    def predict_on(
        self, data: TrafficData, **kwargs
    ) -> Tuple[PredictionResult, np.ndarray]:
        """Forecast every sliding window of ``data``; returns (result, targets)."""
        self._check_fitted()
        return self.method.predict_on(data, **kwargs)

    def serve(self, model_version: Optional[str] = None, **kwargs):
        """Build an (unstarted) :class:`~repro.serving.InferenceServer`."""
        self._check_fitted()
        version = model_version if model_version is not None else self.default_version()
        return self.method.serve(model_version=version, **kwargs)

    def default_version(self) -> str:
        """Stable default serving version derived from the spec."""
        return f"{self.spec.method}-{self.spec.backbone}"

    def deploy(self, server, name: str, version: Optional[str] = None):
        """Register this fitted forecaster as a named deployment on ``server``.

        Convenience over :meth:`InferenceServer.deploy
        <repro.serving.server.InferenceServer.deploy>`: the version defaults
        to the spec-derived :meth:`default_version`, so several spec variants
        deployed side by side stay distinguishable in cache namespaces and
        stats.  Returns the created :class:`~repro.serving.pool.Deployment`.
        """
        self._check_fitted()
        version = version if version is not None else self.default_version()
        return server.deploy(name, self, version=version)

    # ------------------------------------------------------------------ #
    # Online / streaming operation
    # ------------------------------------------------------------------ #
    def stream(self, **kwargs):
        """Open an online forecasting loop over this fitted model.

        Builds (and remembers) a
        :class:`~repro.streaming.StreamingForecaster` that drives
        predict → observe → update with adaptive conformal calibration and
        drift detection; keyword arguments configure it (``aci=``,
        ``detectors=``, ``server=``, ``refit_fn=``, ``refit_policy=``, ...).
        Feed observations either through the returned runner or via
        :meth:`observe`.  A drift-triggered refit is adopted at the first
        observation after it finishes — immediately, or through a
        shadow/canary trial, as the
        :class:`~repro.streaming.RefitPolicy` says — and, with ``server=``,
        deployed and promoted on that server.
        """
        self._check_fitted()
        from repro.streaming import StreamingForecaster

        self._stream = StreamingForecaster(self, **kwargs)
        return self._stream

    def observe(self, observation: np.ndarray, mask: Optional[np.ndarray] = None):
        """Ingest one observation row into the active :meth:`stream` loop."""
        if self._stream is None:
            raise RuntimeError("no active stream; call stream() first")
        return self._stream.observe(observation, mask=mask)

    def fleet(self, server=None, **kwargs):
        """Open a multi-stream fleet served by this fitted model.

        Builds a :class:`~repro.fleet.StreamFleet` whose per-tick predicts
        all funnel through one shared batched
        :class:`~repro.serving.InferenceServer` — a tick over N corridor
        streams costs ``O(ceil(N / batch))`` model calls instead of N.  When
        ``server`` is omitted a server over this model is built *and
        started*; stop it (``fleet.server.stop()``) when done.  Keyword
        arguments configure the fleet (``aci=``, ``refit_fn=``,
        ``spatial=``, ...); register corridors with
        :meth:`StreamFleet.add_stream` and drive them with
        :meth:`StreamFleet.tick`.
        """
        self._check_fitted()
        from repro.fleet import StreamFleet

        config = self.method.config
        owns_server = server is None
        if owns_server:
            server = self.serve()
            server.start()
        try:
            return StreamFleet(server, config.history, config.horizon, **kwargs)
        except BaseException:
            if owns_server:
                # Don't leak a running dispatcher thread the caller has no
                # handle to stop when the fleet itself fails to construct.
                server.stop()
            raise

    # ------------------------------------------------------------------ #
    # Full-state checkpoints
    # ------------------------------------------------------------------ #
    def save(self, directory: Union[str, Path]) -> Path:
        """Persist spec + full inference state to a checkpoint directory.

        The directory holds the spec JSON, the backbone weights (plus any
        ensemble members / snapshots), the scaler statistics, calibration
        temperatures and conformal quantiles — everything
        :meth:`load` needs to reproduce :meth:`predict` bit-identically.
        """
        self._check_fitted()
        state = self.method.get_state()
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "num_nodes": int(self.num_nodes),
            "state": state["meta"],
        }
        arrays = dict(state["arrays"])
        if self.adjacency is not None:
            arrays["adjacency"] = self.adjacency
        return save_checkpoint(Path(directory), meta, arrays)

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "Forecaster":
        """Rebuild a forecaster from a :meth:`save` checkpoint directory."""
        meta, arrays = load_checkpoint(Path(directory))
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {version!r} "
                f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
            )
        adjacency = arrays.pop("adjacency", None)
        forecaster = cls(
            ForecasterSpec.from_dict(meta["spec"]),
            num_nodes=int(meta["num_nodes"]),
            adjacency=adjacency,
        )
        forecaster._build_method()
        forecaster.method.set_state({"meta": meta["state"], "arrays": arrays})
        return forecaster

    def __repr__(self) -> str:
        status = "fitted" if self.fitted else "unfitted"
        return (
            f"Forecaster(method={self.spec.method!r}, backbone={self.spec.backbone!r}, "
            f"num_nodes={self.num_nodes}, {status})"
        )
