"""Registry of forecasting backbones, parallel to :mod:`repro.uq.registry`.

The paper evaluates every UQ method over "the same base architecture"; this
registry makes the base architecture itself a configuration choice.  Each
entry maps a backbone name to its taxonomy (does it build named output heads
natively? does it need a road-network adjacency?) and to a builder that
normalizes the heterogeneous model constructors behind one call:

``create_backbone(name, num_nodes, config=..., heads=..., adjacency=...)``

* problem dimensions (``history`` / ``horizon``) and — where the model shares
  them — width hyper-parameters are taken from a
  :class:`~repro.core.trainer.TrainingConfig`-shaped object (duck-typed, so
  this module stays import-free of :mod:`repro.core`);
* architecture-specific knobs are forwarded via ``**kwargs``;
* backbones that cannot build named heads natively are wrapped in a
  :class:`~repro.models.heads.HeadAdapter` whenever more than a ``mean`` head
  is requested, so every UQ method works with every backbone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.agcrn import AGCRN
from repro.models.astgcn import ASTGCN
from repro.models.base import ForecastModel
from repro.models.dcrnn import DCRNN
from repro.models.gwnet import GraphWaveNet
from repro.models.heads import HeadAdapter
from repro.models.naive import HistoricalAverage, LastValue
from repro.models.stfgnn import STFGNN
from repro.models.stgcn import STGCN
from repro.models.stsgcn import STSGCN

#: Builder signature: (num_nodes, config, heads, adjacency, rng, **kwargs) -> model.
BackboneBuilder = Callable[..., ForecastModel]


@dataclass(frozen=True)
class BackboneInfo:
    """One registered base architecture."""

    name: str
    builder: BackboneBuilder
    supports_heads: bool
    requires_adjacency: bool
    #: Whether the backbone has trainable parameters (the naive references
    #: do not, so gradient-based UQ methods must reject them up front).
    trainable: bool = True
    description: str = ""


def _dims(config: Optional[Any], **extra: Any) -> Dict[str, Any]:
    """History/horizon (plus ``extra`` config fields) as constructor kwargs."""
    if config is None:
        return {}
    params: Dict[str, Any] = {"history": config.history, "horizon": config.horizon}
    for kwarg, field in extra.items():
        params[kwarg] = getattr(config, field)
    return params


def _build_agcrn(num_nodes, config, heads, adjacency, rng, **kwargs) -> AGCRN:
    params = _dims(
        config,
        hidden_dim="hidden_dim",
        embed_dim="embed_dim",
        cheb_k="cheb_k",
        num_layers="num_layers",
        encoder_dropout="encoder_dropout",
        decoder_dropout="decoder_dropout",
    )
    params.update(kwargs)
    return AGCRN(num_nodes=num_nodes, heads=heads, rng=rng, **params)


def _graph_builder(model_cls: type, **config_fields: str) -> BackboneBuilder:
    """Builder for the point baselines taking ``(num_nodes, adjacency, ...)``."""

    def build(num_nodes, config, heads, adjacency, rng, **kwargs) -> ForecastModel:
        params = _dims(config, **config_fields)
        params.update(kwargs)
        return model_cls(num_nodes, adjacency, rng=rng, **params)

    return build


def _naive_builder(model_cls: type) -> BackboneBuilder:
    def build(num_nodes, config, heads, adjacency, rng, **kwargs) -> ForecastModel:
        params = _dims(config)
        params.update(kwargs)
        return model_cls(num_nodes, **params)

    return build


BACKBONE_INFO: Dict[str, BackboneInfo] = {
    "AGCRN": BackboneInfo(
        "AGCRN", _build_agcrn, supports_heads=True, requires_adjacency=False,
        description="adaptive graph conv recurrent network (paper base model)",
    ),
    "DCRNN": BackboneInfo(
        "DCRNN", _graph_builder(DCRNN, hidden_dim="hidden_dim"),
        supports_heads=False, requires_adjacency=True,
        description="diffusion convolution + recurrent seq2seq",
    ),
    "GWNet": BackboneInfo(
        "GWNet", _graph_builder(GraphWaveNet),
        supports_heads=False, requires_adjacency=True,
        description="GraphWaveNet: dilated causal conv + self-adaptive adjacency",
    ),
    "STGCN": BackboneInfo(
        "STGCN", _graph_builder(STGCN),
        supports_heads=False, requires_adjacency=True,
        description="gated temporal conv + Chebyshev graph conv",
    ),
    "ASTGCN": BackboneInfo(
        "ASTGCN", _graph_builder(ASTGCN),
        supports_heads=False, requires_adjacency=True,
        description="spatial/temporal attention + graph conv",
    ),
    "STSGCN": BackboneInfo(
        "STSGCN", _graph_builder(STSGCN),
        supports_heads=False, requires_adjacency=True,
        description="localized spatial-temporal synchronous graph conv",
    ),
    "STFGNN": BackboneInfo(
        "STFGNN", _graph_builder(STFGNN),
        supports_heads=False, requires_adjacency=True,
        description="spatial-temporal fusion graph + gated dilated CNN",
    ),
    "LastValue": BackboneInfo(
        "LastValue", _naive_builder(LastValue),
        supports_heads=False, requires_adjacency=False, trainable=False,
        description="repeat the last observation (naive reference)",
    ),
    "HistoricalAverage": BackboneInfo(
        "HistoricalAverage", _naive_builder(HistoricalAverage),
        supports_heads=False, requires_adjacency=False, trainable=False,
        description="mean of the history window (naive reference)",
    ),
}

#: Alternate spellings accepted by :func:`backbone_info`.
BACKBONE_ALIASES: Dict[str, str] = {
    "GWN": "GWNet",
    "GraphWaveNet": "GWNet",
    "ST-GCN": "STGCN",
}


def available_backbones() -> List[str]:
    """Names of all registered backbones."""
    return list(BACKBONE_INFO)


def backbone_info(name: str) -> BackboneInfo:
    """Lookup of a single backbone's registry entry (aliases resolved)."""
    canonical = BACKBONE_ALIASES.get(name, name)
    if canonical not in BACKBONE_INFO:
        raise KeyError(
            f"unknown backbone {name!r}; available: {available_backbones()}"
        )
    return BACKBONE_INFO[canonical]


def create_backbone(
    name: str,
    num_nodes: int,
    config: Optional[Any] = None,
    heads: Sequence[str] = ("mean",),
    adjacency: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    head_dropout: Optional[float] = None,
    **kwargs,
) -> ForecastModel:
    """Instantiate a registered backbone with the requested output heads.

    Parameters
    ----------
    name:
        A :data:`BACKBONE_INFO` key (or alias).
    config:
        Optional :class:`~repro.core.trainer.TrainingConfig`-shaped object
        supplying ``history`` / ``horizon`` (and, for AGCRN/DCRNN, the shared
        width fields).  Without it the model's own defaults apply.
    heads:
        Requested output-head names.  Backbones without native head support
        are wrapped in a :class:`HeadAdapter` when more than ``("mean",)`` is
        requested.
    adjacency:
        Dense road-network adjacency, required by the graph-structured
        baselines (see :attr:`BackboneInfo.requires_adjacency`).
    head_dropout:
        Dropout rate of the head adapter (defaults to the config's
        ``decoder_dropout``, or 0.2 without a config).
    kwargs:
        Architecture-specific constructor arguments, forwarded verbatim.
    """
    info = backbone_info(name)
    heads = tuple(heads)
    if not heads:
        raise ValueError("heads must be a non-empty sequence")
    rng = rng if rng is not None else np.random.default_rng()
    if info.requires_adjacency and adjacency is None:
        raise ValueError(
            f"backbone {info.name!r} needs a road-network adjacency matrix; pass "
            "adjacency=... (the Forecaster facade takes it from the dataset's network)"
        )
    if info.supports_heads:
        return info.builder(num_nodes, config, heads, adjacency, rng, **kwargs)
    model = info.builder(num_nodes, config, None, adjacency, rng, **kwargs)
    if heads == ("mean",):
        return model
    if head_dropout is None:
        head_dropout = config.decoder_dropout if config is not None else 0.2
    return HeadAdapter(model, heads, dropout=head_dropout, rng=rng)
