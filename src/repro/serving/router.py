"""Request routing policies for the multi-deployment serving pool.

A :class:`Router` maps each incoming request to a :class:`RouteDecision`:
which named deployment answers it (``primary``) and which deployments see a
mirrored copy without affecting the response (``shadows``).  ``primary=None``
means "whatever the pool's default route points at *when the batch is
processed*" — that late binding is what makes
:meth:`~repro.serving.pool.ModelPool.promote` /
:meth:`~repro.serving.pool.ModelPool.rollback` atomic: in-flight batches
keep the deployment they snapshotted, later batches see the new default.

Three built-in policies:

* :class:`KeyRouter` — dictionary routing on the request key (per-region /
  per-corridor models);
* :class:`TrafficSplitRouter` — deterministic weighted splitting (canary
  traffic shares) using deficit round-robin, so realized shares track the
  configured weights exactly rather than only in expectation;
* :class:`ShadowRouter` — mirrors every request to candidate deployments
  while an inner router (or the pool default) keeps answering.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class RouteDecision:
    """Where one request goes: the answering deployment plus mirror targets."""

    primary: Optional[str] = None        # None -> pool default at batch time
    shadows: Tuple[str, ...] = ()


class Router:
    """Base policy: everything to the pool's default deployment."""

    def route(self, window: np.ndarray, key: Optional[Any] = None) -> RouteDecision:
        """Decide the deployment(s) for one request; override in subclasses."""
        return RouteDecision()

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"


class KeyRouter(Router):
    """Route by request key (region, corridor, horizon bucket, ...).

    Parameters
    ----------
    routes:
        Mapping from request key to deployment name.
    default:
        Deployment for unmapped (or missing) keys; ``None`` falls through to
        the pool default.
    """

    def __init__(self, routes: Dict[Any, str], default: Optional[str] = None) -> None:
        self.routes = dict(routes)
        self.default = default

    def route(self, window: np.ndarray, key: Optional[Any] = None) -> RouteDecision:
        try:
            return RouteDecision(primary=self.routes.get(key, self.default))
        except TypeError:  # unhashable key
            return RouteDecision(primary=self.default)

    def set_routes(self, routes: Dict[Any, str]) -> None:
        """Re-point several keys atomically (e.g. a whole region).

        Copy-and-swap: the update builds a fresh table and publishes it in
        one attribute rebind (atomic under the GIL for *any* key type, even
        ones with Python-level ``__hash__``), so a concurrent submit never
        observes a region with half its keys on the old deployment and half
        on the new one.
        """
        replacement = dict(self.routes)
        replacement.update(routes)
        self.routes = replacement

    def __repr__(self) -> str:
        return f"KeyRouter({len(self.routes)} routes, default={self.default!r})"


class TrafficSplitRouter(Router):
    """Deterministic weighted traffic splitting across deployments.

    Uses deficit round-robin: request ``t`` goes to the deployment whose
    realized share lags its configured weight the most, so after ``t``
    requests every deployment has received ``weight * t`` requests to within
    one.  Deterministic splits keep canary experiments and tests exactly
    reproducible, with no RNG coupling between concurrent clients.

    Parameters
    ----------
    weights:
        ``{deployment name: weight}``; weights must be non-negative with a
        positive sum and are normalized internally.  ``None`` as a name
        stands for the pool's default route — or, when ``inner`` is given,
        for whatever that router decides.
    inner:
        Optional router handling the ``None`` share.  A canary split over an
        existing :class:`KeyRouter` is
        ``TrafficSplitRouter({None: 0.9, "cand": 0.1}, inner=key_router)``:
        90% of traffic keeps its per-key routing, 10% goes to the canary.
    """

    def __init__(
        self,
        weights: Dict[Optional[str], float],
        inner: Optional[Router] = None,
    ) -> None:
        if not weights:
            raise ValueError("weights must name at least one deployment")
        total = float(sum(weights.values()))
        if total <= 0.0 or any(w < 0.0 for w in weights.values()):
            raise ValueError("weights must be non-negative with a positive sum")
        self.weights: Dict[Optional[str], float] = {
            name: float(w) / total for name, w in weights.items()
        }
        self.inner = inner
        self._served: Dict[Optional[str], int] = {name: 0 for name in self.weights}
        self._total = 0
        self._lock = threading.Lock()

    def route(self, window: np.ndarray, key: Optional[Any] = None) -> RouteDecision:
        with self._lock:
            self._total += 1
            name = max(
                self.weights,
                key=lambda n: self.weights[n] * self._total - self._served[n],
            )
            self._served[name] += 1
        if name is None and self.inner is not None:
            return self.inner.route(window, key=key)
        return RouteDecision(primary=name)

    @property
    def realized_shares(self) -> Dict[Optional[str], float]:
        """Fraction of routed requests each deployment actually received."""
        with self._lock:
            if self._total == 0:
                return {name: 0.0 for name in self.weights}
            return {name: count / self._total for name, count in self._served.items()}

    def set_weights(self, weights: Dict[Optional[str], float]) -> None:
        """Atomically replace the split (e.g. widen a canary); resets shares."""
        replacement = TrafficSplitRouter(weights)
        with self._lock:
            self.weights = replacement.weights
            self._served = {name: 0 for name in self.weights}
            self._total = 0

    def __repr__(self) -> str:
        return f"TrafficSplitRouter({self.weights})"


class ShadowRouter(Router):
    """Mirror every request to candidate deployments without serving from them.

    Responses come from ``inner`` (or the pool default when ``inner`` is
    omitted); each request is *also* tagged for the ``shadows``, whose
    predictions are computed on the same batches, cached under their own
    namespace, and folded into their rolling divergence metrics — live-traffic
    evaluation with zero impact on what clients receive.
    """

    def __init__(
        self, shadows: Sequence[str], inner: Optional[Router] = None
    ) -> None:
        if not shadows:
            raise ValueError("ShadowRouter needs at least one shadow deployment")
        self.shadows: Tuple[str, ...] = tuple(dict.fromkeys(shadows))
        self.inner = inner

    def route(self, window: np.ndarray, key: Optional[Any] = None) -> RouteDecision:
        base = self.inner.route(window, key=key) if self.inner is not None else RouteDecision()
        shadows = tuple(s for s in self.shadows if s != base.primary)
        return RouteDecision(primary=base.primary, shadows=base.shadows + shadows)

    def __repr__(self) -> str:
        return f"ShadowRouter(shadows={self.shadows}, inner={self.inner!r})"
