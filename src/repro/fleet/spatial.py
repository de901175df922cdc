"""Spatial drift aggregation: N correlated alarms → one incident event.

A congestion incident (the ``incident_storm`` scenario) does not drift one
sensor — it drops capacity on a corridor *and its graph neighbors*, so each
affected stream's own detectors fire independently and an operator sees N
near-simultaneous alarms with no hint that they are one event.  Only a
fleet-level view can collapse them: the
:class:`SpatialDriftAggregator` watches per-stream drift firings, projects
them onto the corridor road graph (``repro.graph`` adjacency), and when a
connected cluster of recently-breached nodes reaches the configured size it
emits a single ``spatial_incident`` :class:`~repro.streaming.drift.DriftEvent`
naming the whole cluster.

The aggregator is deliberately detector-agnostic: it consumes the typed
events the per-stream detectors already emit (coverage breaches, error
CUSUMs), so any detector added later participates for free.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.streaming.drift import DRIFT_KINDS, DriftEvent

#: Event kind emitted for a correlated cluster of per-stream drift firings.
SPATIAL_INCIDENT = "spatial_incident"


class SpatialDriftAggregator:
    """Collapse correlated per-stream drift into one spatial incident event.

    Parameters
    ----------
    adjacency:
        Dense ``(nodes, nodes)`` corridor adjacency (entries > 0 are edges);
        typically ``RoadNetwork.adjacency_matrix()`` of the corridor graph.
    window:
        How many recent steps a node's breach stays "hot" for clustering.
    min_cluster:
        Connected hot nodes required before an incident fires — the debounce
        separating one drifting corridor from a spatially-correlated event.
    cooldown:
        Steps after a firing during which the aggregator stays silent, so a
        long incident produces one event rather than one per tick.
    watch_kinds:
        Per-stream event kinds that count as a breach.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        window: int = 24,
        min_cluster: int = 3,
        cooldown: int = 50,
        watch_kinds: Sequence[str] = DRIFT_KINDS,
    ) -> None:
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if window < 1 or min_cluster < 1 or cooldown < 0:
            raise ValueError("window and min_cluster must be >= 1, cooldown >= 0")
        self.adjacency = adjacency
        self.num_nodes = int(adjacency.shape[0])
        self.window = int(window)
        self.min_cluster = int(min_cluster)
        self.cooldown = int(cooldown)
        self.watch_kinds = tuple(watch_kinds)
        self._last_breach: Dict[int, int] = {}          # node -> last breach step
        self._stream_of: Dict[int, str] = {}            # node -> stream name
        self._last_fired: Optional[int] = None
        self._incidents = 0

    # ------------------------------------------------------------------ #
    def observe(
        self, node: Optional[int], stream: str, events: Iterable[DriftEvent], step: int
    ) -> None:
        """Fold one stream's tick events in (no-op for unmapped streams)."""
        if node is None:
            return
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range for {self.num_nodes} corridors")
        self._stream_of[node] = stream
        for event in events:
            if event.kind in self.watch_kinds:
                self._last_breach[node] = int(step)

    def hot_nodes(self, step: int) -> Set[int]:
        """Nodes whose last breach is within the rolling window."""
        horizon = step - self.window
        return {node for node, at in self._last_breach.items() if at > horizon}

    def _clusters(self, hot: Set[int]) -> List[Set[int]]:
        """Connected components of the breached subgraph (BFS)."""
        remaining = set(hot)
        clusters: List[Set[int]] = []
        while remaining:
            seed = remaining.pop()
            component = {seed}
            frontier = [seed]
            while frontier:
                node = frontier.pop()
                neighbors = np.nonzero(self.adjacency[node] > 0)[0]
                for neighbor in neighbors:
                    neighbor = int(neighbor)
                    if neighbor in remaining:
                        remaining.discard(neighbor)
                        component.add(neighbor)
                        frontier.append(neighbor)
            clusters.append(component)
        return clusters

    def poll(self, step: int) -> Optional[DriftEvent]:
        """Check for a qualifying cluster; returns one event (or ``None``).

        Called once per fleet tick after every stream's events have been
        observed.  The largest qualifying connected cluster wins; the
        cooldown then silences further firings while the same incident
        keeps nodes hot.
        """
        if self._last_fired is not None and step - self._last_fired < self.cooldown:
            return None
        clusters = [
            cluster
            for cluster in self._clusters(self.hot_nodes(step))
            if len(cluster) >= self.min_cluster
        ]
        if not clusters:
            return None
        cluster = max(clusters, key=len)
        self._last_fired = int(step)
        self._incidents += 1
        nodes = sorted(cluster)
        streams = [self._stream_of.get(node, f"node{node}") for node in nodes]
        return DriftEvent(
            kind=SPATIAL_INCIDENT,
            step=int(step),
            value=float(len(cluster)),
            threshold=float(self.min_cluster),
            message=(
                f"correlated drift across {len(cluster)} neighboring corridors: "
                + ", ".join(streams)
            ),
        )

    # ------------------------------------------------------------------ #
    @property
    def incidents(self) -> int:
        """Spatial incidents fired so far."""
        return self._incidents

    def stats(self) -> Dict[str, float]:
        return {
            "incidents": self._incidents,
            "tracked_nodes": len(self._last_breach),
            "last_fired": self._last_fired if self._last_fired is not None else -1,
        }

    def get_state(self) -> Dict[str, Any]:
        """JSON-ready breach clocks, stream names, cooldown clock and count.

        Without it a restored fleet forgets its cooldown and re-fires the
        incident it already reported, and its incident count restarts at 0.
        JSON object keys are strings, so nodes are stored as strings.
        """
        return {
            "last_breach": {str(node): int(at) for node, at in self._last_breach.items()},
            "stream_of": {str(node): name for node, name in self._stream_of.items()},
            "last_fired": self._last_fired,
            "incidents": self._incidents,
        }

    def set_state(self, state: Dict[str, Any]) -> "SpatialDriftAggregator":
        self._last_breach = {int(node): int(at) for node, at in state["last_breach"].items()}
        self._stream_of = {int(node): str(name) for node, name in state["stream_of"].items()}
        last_fired = state["last_fired"]
        self._last_fired = None if last_fired is None else int(last_fired)
        self._incidents = int(state["incidents"])
        return self

    def __repr__(self) -> str:
        return (
            f"SpatialDriftAggregator(nodes={self.num_nodes}, window={self.window}, "
            f"min_cluster={self.min_cluster}, incidents={self._incidents})"
        )
