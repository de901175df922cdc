"""Whole-fleet checkpoints, sharded per stream.

A fleet checkpoint is a directory tree::

    <dir>/
        fleet/                      # manifest: stream identities, fleet
            checkpoint.json         # event log, coordination counters,
            arrays.npz              # spatial-aggregator state
        streams/<name>/             # one shard per stream: the full
            checkpoint.json         # StreamCore state (ACI buffers,
            arrays.npz              # monitor rings, event log, step)

Every stream's adaptive-conformal buffers, rolling monitor windows and
drift-event log round-trip **bit-identically** through the shared
``get_state`` / ``set_state`` array protocol, so a restarted fleet resumes
with warm calibration and metrics on all N streams instead of re-warming
from empty windows.  The manifest also carries the refit coordinator's and
the spatial aggregator's state: a restored fleet keeps its quorum
evidence, its incident cooldown and its incident count.  Models are *not*
stored here — deployments live on the shared server, whose checkpointing
(:meth:`~repro.serving.InferenceServer.from_checkpoint`,
``Forecaster.save``) is orthogonal; :func:`load_fleet` takes the server the
restored fleet should run against.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Union

from repro.utils.serialization import load_checkpoint, save_checkpoint

#: On-disk format revision of the fleet checkpoint tree.
FLEET_FORMAT_VERSION = 1

FLEET_SUBDIR = "fleet"
STREAMS_SUBDIR = "streams"


def save_fleet(fleet: Any, directory: Union[str, Path]) -> Path:
    """Persist a :class:`~repro.fleet.StreamFleet` as a sharded checkpoint."""
    directory = Path(directory)
    manifest = {
        "kind": "fleet",
        "format_version": FLEET_FORMAT_VERSION,
        "tick": fleet._tick,
        "history": fleet.history,
        "horizon": fleet.horizon,
        "version_prefix": fleet.version_prefix,
        "monitor_window": fleet.monitor_window,
        "streams": [stream.describe() for stream in fleet.streams.values()],
        "events": fleet.event_log.to_records(),
        "region_deployments": {
            region: name for region, name in fleet._region_deployment.items()
        },
        "coordinator": (
            fleet.coordinator.get_state() if fleet.coordinator is not None else None
        ),
        "spatial": fleet.spatial.get_state() if fleet.spatial is not None else None,
    }
    save_checkpoint(directory / FLEET_SUBDIR, manifest, {})
    for name, stream in fleet.streams.items():
        state = stream.core.get_state()
        save_checkpoint(directory / STREAMS_SUBDIR / name, state["meta"], state["arrays"])
    return directory


def load_fleet(
    cls, directory: Union[str, Path], server: Any, **kwargs: Any
):
    """Rebuild a fleet from :func:`save_fleet` against a (new) shared server.

    ``kwargs`` forward to the fleet constructor (``refit_fn``,
    ``refit_policy``, ``spatial``, ``detector_factory``, ...) — behaviour
    lives in code, state in the checkpoint.  Every stream is re-registered
    under its stored identity (name / region / node / key) and its core
    state restored bit-identically.  The coordinator and the spatial
    aggregator passed in get their saved state; a manifest written before
    the aggregator was checkpointed leaves it fresh.
    """
    directory = Path(directory)
    manifest, _ = load_checkpoint(directory / FLEET_SUBDIR)
    if manifest.get("kind") != "fleet":
        raise ValueError(f"{directory} is not a fleet checkpoint")
    version = manifest.get("format_version")
    if version != FLEET_FORMAT_VERSION:
        raise ValueError(
            f"unsupported fleet checkpoint format {version!r} "
            f"(this build reads version {FLEET_FORMAT_VERSION})"
        )
    kwargs.setdefault("monitor_window", int(manifest["monitor_window"]))
    kwargs.setdefault("version_prefix", str(manifest["version_prefix"]))
    fleet = cls(
        server,
        int(manifest["history"]),
        int(manifest["horizon"]),
        **kwargs,
    )
    from repro.streaming.drift import EventLog

    fleet._tick = int(manifest["tick"])
    fleet.event_log = EventLog.from_records(manifest["events"])
    fleet._region_deployment = {
        str(region): name for region, name in (manifest["region_deployments"] or {}).items()
    }
    if fleet.coordinator is not None and manifest.get("coordinator") is not None:
        fleet.coordinator.set_state(manifest["coordinator"])
    if fleet.spatial is not None and manifest.get("spatial") is not None:
        fleet.spatial.set_state(manifest["spatial"])
    for descriptor in manifest["streams"]:
        stream = fleet.add_stream(
            descriptor["name"],
            region=descriptor.get("region"),
            node=descriptor.get("node"),
            key=descriptor.get("key"),
        )
        meta, arrays = load_checkpoint(
            directory / STREAMS_SUBDIR / descriptor["name"]
        )
        stream.core.set_state({"meta": meta, "arrays": arrays})
    # Re-point the regions' routes at their promoted deployments — the
    # restored fleet's router starts empty, and a promotion the snapshot
    # reports as live must actually serve.  Regions whose deployment no
    # longer exists on this server fall back to the default route and are
    # dropped from the record, so ops output never claims a phantom model.
    pool = getattr(server, "pool", None)
    if pool is not None:
        for region, name in list(fleet._region_deployment.items()):
            if name is None:
                continue
            if name not in pool:
                del fleet._region_deployment[region]
            elif fleet.router is not None:
                fleet.router.set_routes(
                    {stream.key: name for stream in fleet.region_streams(region)}
                )
            elif pool.default_name != name:
                # No key routing: mirror the live promotion path, which moves
                # the default route.
                server.promote(name)
    return fleet
