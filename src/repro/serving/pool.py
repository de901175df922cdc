"""Named model deployments behind one serving endpoint.

:class:`ModelPool` is the registry the redesigned
:class:`~repro.serving.server.InferenceServer` fronts: each
:class:`Deployment` wraps one predict function (a
:class:`~repro.api.Forecaster`, a fitted UQ method, a bare function, or a
checkpoint directory) under a stable *name* and a *version*.  The pool owns

* the **default route** — the deployment answering requests that no router
  pins to a specific name — together with :meth:`promote` / :meth:`rollback`,
  which atomically re-point it (in-flight batches keep the deployment they
  snapshotted; zero requests are dropped or mixed across versions);
* the **shared cache budget** — all deployments share one
  :class:`~repro.serving.cache.SharedPredictionCache`, namespaced by
  ``name@version`` so a promoted or swapped model can never serve a
  predecessor's entries;
* **per-deployment stats** — request/window counters plus rolling shadow
  divergence, the signals canary and shadow evaluation read.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.inference import PredictionResult
from repro.serving.cache import SharedPredictionCache
from repro.streaming.monitor import RollingStat

PredictFn = Callable[[np.ndarray], PredictionResult]


def resolve_predict_fn(model: Any) -> PredictFn:
    """Normalize anything deployable into a batch predict function.

    Accepts an object with a batch ``predict`` method (a
    :class:`~repro.api.Forecaster`, a fitted UQ method, a baseline), a bare
    callable, or a checkpoint directory path written by ``Forecaster.save``.
    """
    if isinstance(model, (str, Path)):
        from repro.api import Forecaster

        model = Forecaster.load(model)
    predict = model.predict if hasattr(model, "predict") else model
    if not callable(predict):
        raise TypeError(
            "deployable models need a batch predict method, a bare predict "
            f"function, or a checkpoint path; got {type(model).__name__}"
        )
    return predict


class Deployment:
    """One named, versioned model inside a :class:`ModelPool`."""

    def __init__(
        self, name: str, version: str, predict_fn: PredictFn, metric_window: int = 256
    ) -> None:
        self.name = str(name)
        self.version = str(version)
        self.predict_fn = predict_fn
        self._lock = threading.Lock()
        self._requests_served = 0
        self._model_windows = 0
        self._shadow_windows = 0
        # Rolling mean |shadow mean - primary mean| while this deployment is
        # mirrored behind a ShadowRouter: cheap live-traffic divergence.
        self._divergence = RollingStat(metric_window)

    @property
    def namespace(self) -> str:
        """Cache namespace: one per ``(name, version)`` pair."""
        return f"{self.name}@{self.version}"

    def record_served(self, requests: int, model_windows: int) -> None:
        with self._lock:
            self._requests_served += int(requests)
            self._model_windows += int(model_windows)

    def record_shadow(self, windows: int, divergence: Optional[float] = None) -> None:
        with self._lock:
            self._shadow_windows += int(windows)
            if divergence is not None and np.isfinite(divergence):
                self._divergence.push(float(divergence))

    @property
    def stats(self) -> Dict[str, float]:
        """JSON-native counters (builtin scalars only — gateway-serializable)."""
        with self._lock:
            return {
                "version": self.version,
                "requests_served": int(self._requests_served),
                "model_windows": int(self._model_windows),
                "shadow_windows": int(self._shadow_windows),
                "shadow_divergence": float(self._divergence.mean),
            }

    def __repr__(self) -> str:
        return f"Deployment({self.name!r}, version={self.version!r})"


class ModelPool:
    """Registry of named deployments plus the default route and shared cache.

    Parameters
    ----------
    cache:
        Shared :class:`SharedPredictionCache`; ``None`` disables caching for
        every deployment.
    metric_window:
        Rolling-window length of each deployment's shadow divergence stat.
    """

    def __init__(
        self,
        cache: Optional[SharedPredictionCache] = None,
        metric_window: int = 256,
    ) -> None:
        self.cache = cache
        self.metric_window = int(metric_window)
        self._deployments: Dict[str, Deployment] = {}
        self._default: Optional[str] = None
        self._route_history: List[str] = []
        self._auto_versions: Dict[str, int] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def deploy(self, name: str, model: Any, version: Optional[str] = None) -> Deployment:
        """Register (or replace) the deployment called ``name``.

        Re-deploying an existing name is the hot-swap path: the new
        ``(predict_fn, version)`` pair becomes visible atomically, the old
        version's cache namespace is dropped, and batches already holding the
        old snapshot finish on it, so no request is dropped or answered by a
        mix of versions.
        """
        predict_fn = resolve_predict_fn(model)
        with self._lock:
            if version is None:
                issue = self._auto_versions.get(name, 0)
                self._auto_versions[name] = issue + 1
                version = f"v{issue}"
            previous = self._deployments.get(name)
            deployment = Deployment(
                name, version, predict_fn, metric_window=self.metric_window
            )
            self._deployments[name] = deployment
            if self._default is None:
                self._default = name
        if previous is not None and self.cache is not None:
            if previous.namespace != deployment.namespace:
                self.cache.drop_namespace(previous.namespace)
        return deployment

    def undeploy(self, name: str) -> Deployment:
        """Retire a deployment; its cache namespace is freed immediately."""
        with self._lock:
            if name == self._default:
                raise ValueError(
                    f"cannot undeploy {name!r}: it is the default route; "
                    "promote or rollback to another deployment first"
                )
            if name not in self._deployments:
                raise KeyError(f"no deployment named {name!r}")
            deployment = self._deployments.pop(name)
            self._route_history = [n for n in self._route_history if n != name]
        if self.cache is not None:
            self.cache.drop_namespace(deployment.namespace)
        return deployment

    # ------------------------------------------------------------------ #
    # Default-route management
    # ------------------------------------------------------------------ #
    def promote(self, name: str) -> Optional[str]:
        """Atomically point the default route at ``name``; returns the previous name.

        Requests whose batches already snapshotted the old default finish on
        it; every later batch (and its cache namespace) uses ``name``.
        """
        with self._lock:
            if name not in self._deployments:
                raise KeyError(f"no deployment named {name!r}")
            previous = self._default
            if previous == name:
                return previous
            if previous is not None:
                self._route_history.append(previous)
            self._default = name
            return previous

    def rollback(self, name: Optional[str] = None) -> str:
        """Revert the default route to the previous promotion; returns the new default.

        ``name`` (when given) must be the deployment being rolled back — the
        current default — and it is retired from the pool after the route has
        moved off it, so a rejected canary cannot be routed to again.
        """
        with self._lock:
            if name is not None and name != self._default:
                raise ValueError(
                    f"rollback({name!r}) does not match the default route "
                    f"{self._default!r}"
                )
            if not self._route_history:
                raise RuntimeError("no previous route to roll back to")
            rolled_back = self._default
            self._default = self._route_history.pop()
            new_default = self._default
        if name is not None and rolled_back is not None:
            self.undeploy(rolled_back)
        return new_default

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def default_name(self) -> Optional[str]:
        with self._lock:
            return self._default

    def resolve(self, name: Optional[str]) -> Deployment:
        """Deployment for a route name (``None`` = current default)."""
        with self._lock:
            target = name if name is not None else self._default
            if target is None:
                raise RuntimeError("the pool has no deployments")
            deployment = self._deployments.get(target)
            if deployment is None:
                raise KeyError(f"no deployment named {target!r}")
            return deployment

    def get(self, name: str) -> Optional[Deployment]:
        with self._lock:
            return self._deployments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._deployments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._deployments

    def __len__(self) -> int:
        with self._lock:
            return len(self._deployments)

    @property
    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-deployment counters, keyed by deployment name."""
        with self._lock:
            deployments = dict(self._deployments)
        return {name: deployment.stats for name, deployment in deployments.items()}

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ModelPool({len(self._deployments)} deployments, "
                f"default={self._default!r})"
            )
