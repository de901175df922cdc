"""Thread-safe, deployment-namespaced LRU cache for prediction results.

Traffic-forecast serving sees heavy key re-use: the same sensor windows are
requested by many concurrent clients (dashboards, routing queries) within a
forecast refresh period.  Caching a :class:`~repro.core.inference.PredictionResult`
per *(model version, input window, inference parameters)* key turns those
duplicates into O(1) lookups instead of repeated MC sampling.

:class:`SharedPredictionCache` keeps one *global* entry budget shared by
every named deployment, with per-deployment (namespace) LRU chains and
fair-share eviction: budget pressure always evicts from the namespace
currently holding the most entries, so one hot deployment cannot flush a
quiet deployment's entire working set.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

import numpy as np


def prediction_cache_key(window: np.ndarray, model_version: str, **params: Any) -> str:
    """Deterministic cache key over input bytes, model version and parameters.

    The hash covers the array's dtype, shape and raw bytes, so two windows
    that are numerically equal but shaped differently never collide, and any
    change to the model version or to inference parameters (``num_samples``,
    ``temperature``, ...) invalidates the entry.
    """
    window = np.ascontiguousarray(window, dtype=np.float64)
    digest = hashlib.sha256()
    digest.update(model_version.encode("utf-8"))
    digest.update(repr(sorted(params.items())).encode("utf-8"))
    digest.update(str(window.dtype).encode("utf-8"))
    digest.update(repr(window.shape).encode("utf-8"))
    digest.update(window.tobytes())
    return digest.hexdigest()


class SharedPredictionCache:
    """Namespaced LRU cache under one global entry budget.

    Every entry lives in a *namespace* (one per deployment version, e.g.
    ``"regional@v3"``).  Lookups and inserts are per-namespace LRU; the
    *budget* is global.  When an insert pushes the total past the budget the
    victim entry is the least-recently-used entry of the **largest**
    namespace — fair-share eviction, so a deployment can only ever be
    evicted below its fair share of the budget by its own traffic.

    Dropping a whole namespace (model retired or replaced) is O(size of that
    namespace) via :meth:`drop_namespace`.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._spaces: "Dict[str, OrderedDict[str, Any]]" = {}
        self._size = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, namespace: str, key: str) -> Optional[Any]:
        with self._lock:
            space = self._spaces.get(namespace)
            if space is None or key not in space:
                self._misses += 1
                return None
            self._hits += 1
            space.move_to_end(key)
            return space[key]

    def put(self, namespace: str, key: str, value: Any) -> None:
        with self._lock:
            space = self._spaces.get(namespace)
            if space is None:
                space = self._spaces[namespace] = OrderedDict()
            if key in space:
                space.move_to_end(key)
                space[key] = value
                return
            space[key] = value
            self._size += 1
            while self._size > self.capacity:
                victim = max(self._spaces.values(), key=len)
                victim.popitem(last=False)
                self._size -= 1
                self._evictions += 1
            # Tidy namespaces fully evicted away so max() stays cheap.
            for name in [n for n, s in self._spaces.items() if not s]:
                del self._spaces[name]

    def drop_namespace(self, namespace: str) -> int:
        """Free every entry of one namespace; returns how many were dropped."""
        with self._lock:
            space = self._spaces.pop(namespace, None)
            if space is None:
                return 0
            self._size -= len(space)
            return len(space)

    def namespace_sizes(self) -> Dict[str, int]:  # repro: noqa[unused/symbol] tests/serving/test_promotion_concurrency.py
        """Current entry count per live namespace (a copy)."""
        with self._lock:
            return {name: len(space) for name, space in self._spaces.items()}

    def clear(self) -> None:
        with self._lock:
            self._spaces.clear()
            self._size = 0

    def __len__(self) -> int:
        with self._lock:
            return self._size

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": self._size,
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "namespaces": len(self._spaces),
            }
