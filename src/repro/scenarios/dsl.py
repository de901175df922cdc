"""Config-driven scenario DSL over the synthetic traffic primitives.

A scenario is data, not code: a :class:`ScenarioSpec` names a stream length,
a seed and an ordered list of *primitives* — small parameter dicts — and
:meth:`ScenarioSpec.build` compiles them onto a
:class:`~repro.data.StreamingTrafficFeed`.  Specs save to and load from
JSON files (:meth:`ScenarioSpec.save`, :func:`load_scenario`), so the
scripted feeds streaming experiments run on live in version-controlled
config instead of ad-hoc driver code.

Two families of primitives compose:

* the **legacy** kinds — ``regime_shift``, ``incident_storm``,
  ``dropout_burst`` — are forwarded verbatim as
  :class:`~repro.data.StreamScenarioEvent` into the feed's own generation
  pass.  A spec with the primitive ``StreamingTrafficFeed.scenario``
  hard-codes is therefore **bit-identical** to that feed at the same
  seed: same RNG, same draw order, same floats;
* the **extended** kinds — ``holiday_cycle``, ``clock_skew``,
  ``stuck_sensor``, ``adversarial_spike``, ``cold_start``, ``cascade`` —
  are post-transforms on the generated stream.  Each one draws from its own
  :class:`numpy.random.SeedSequence`-derived generator (salted by kind and
  by position in the spec), so adding or re-ordering extended primitives
  never perturbs the legacy RNG stream or each other.

Example (JSON)::

    {
      "name": "holiday-regime",
      "num_steps": 1000,
      "seed": 7,
      "primitives": [
        {"kind": "regime_shift", "start": 500, "noise_scale": 2.5},
        {"kind": "holiday_cycle", "every_days": 7, "attenuation": 0.55},
        {"kind": "stuck_sensor", "start": 300, "duration": 60,
         "node_fraction": 0.1}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.synthetic import (
    StreamingTrafficFeed,
    StreamScenarioEvent,
    SyntheticTrafficConfig,
)

#: Primitive kinds compiled into :class:`StreamScenarioEvent` and applied
#: inside the feed's own generation pass (bit-identical to hand-coded feeds).
LEGACY_KINDS = ("regime_shift", "incident_storm", "dropout_burst")

#: Allowed parameters (with defaults) per primitive kind.  ``None`` defaults
#: mean "to the end of the stream" for durations; node-targeted primitives
#: accept an explicit ``nodes`` list instead of a sampled ``node_fraction``.
PRIMITIVE_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "regime_shift": {
        "start": 0, "duration": None, "noise_scale": 1.0, "flow_scale": 1.0,
    },
    "incident_storm": {
        "start": 0, "duration": None, "rate": 0.2, "severity": 0.5,
    },
    "dropout_burst": {
        "start": 0, "duration": None, "node_fraction": 0.3,
    },
    # Extra weekly/holiday structure on top of the generator's daily cycle:
    # every ``every_days``-th day is a holiday attenuated to ``attenuation``
    # of its normal flow; an optional slow seasonal sinusoid with period
    # ``season_period_days`` and relative ``season_amplitude`` rides along.
    "holiday_cycle": {
        "every_days": 7, "attenuation": 0.6,
        "season_period_days": 0, "season_amplitude": 0.0,
    },
    # A subset of sensors reports readings ``skew`` steps stale (per-node
    # skew drawn uniformly from 1..max_skew_steps): observed values shift,
    # the clean oracle does not — exactly the truth/report misalignment a
    # miscalibrated sensor clock produces.
    "clock_skew": {
        "start": 0, "duration": None, "node_fraction": 0.2,
        "max_skew_steps": 3, "nodes": None,
    },
    # Frozen sensors: the chosen nodes repeat their last pre-event reading
    # for the whole span (a stuck loop detector, not a dropout — the value
    # stays plausible, which is what makes it nasty).
    "stuck_sensor": {
        "start": 0, "duration": None, "node_fraction": 0.1, "nodes": None,
    },
    # Sparse adversarial outliers: ~``rate`` sensors-per-step spike by
    # ``magnitude`` observation-noise sigmas.
    "adversarial_spike": {
        "start": 0, "duration": None, "rate": 0.05, "magnitude": 8.0,
    },
    # Cold-start corridor: the chosen nodes are dark (NaN / zero, matching
    # the feed's dropout encoding) before ``start`` and come online then —
    # the single-feed face of a corridor joining a warm fleet.
    "cold_start": {
        "start": 0, "node_fraction": 0.25, "nodes": None,
    },
    # Cascading multi-region incidents: the node range is split into
    # ``groups`` contiguous regions; region ``r`` takes an incident burst of
    # ``duration`` steps starting at ``start + r * stagger``.
    "cascade": {
        "start": 0, "duration": 60, "stagger": 50, "groups": 2,
        "rate": 0.3, "severity": 0.6,
    },
}

#: Per-kind salts feeding the derived SeedSequence of extended primitives.
_KIND_SALTS = {kind: index for index, kind in enumerate(sorted(PRIMITIVE_DEFAULTS))}


def _validate_primitive(primitive: Dict[str, Any]) -> Dict[str, Any]:
    """One validated, defaults-filled primitive dict (kind first)."""
    if "kind" not in primitive:
        raise ValueError(f"primitive is missing its 'kind': {primitive!r}")
    kind = str(primitive["kind"])
    if kind not in PRIMITIVE_DEFAULTS:
        raise ValueError(
            f"unknown primitive kind {kind!r}; available: "
            f"{', '.join(sorted(PRIMITIVE_DEFAULTS))}"
        )
    allowed = PRIMITIVE_DEFAULTS[kind]
    unknown = set(primitive) - set(allowed) - {"kind"}
    if unknown:
        raise ValueError(
            f"primitive {kind!r} does not accept {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    merged = {"kind": kind, **allowed}
    merged.update({key: primitive[key] for key in primitive if key != "kind"})
    return merged


def _span(start: int, duration: Optional[int], num_steps: int) -> Tuple[int, int]:
    stop = num_steps if duration is None else min(int(start) + int(duration), num_steps)
    return min(max(int(start), 0), num_steps), stop


def _pick_nodes(
    primitive: Dict[str, Any], num_nodes: int, rng: np.random.Generator
) -> np.ndarray:
    """Explicit ``nodes`` list, or a ``node_fraction`` sample from ``rng``."""
    if primitive.get("nodes") is not None:
        nodes = np.asarray(primitive["nodes"], dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
            raise ValueError(f"nodes out of range for {num_nodes} sensors: {nodes}")
        return nodes
    hit = max(1, int(round(float(primitive["node_fraction"]) * num_nodes)))
    return rng.choice(num_nodes, size=min(hit, num_nodes), replace=False)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative streaming scenario: length, seed, ordered primitives.

    ``config`` holds keyword overrides for the feed's
    :class:`~repro.data.synthetic.SyntheticTrafficConfig` (e.g. a flat daily
    profile for drift-localization experiments); ``primitives`` is the
    ordered tuple of validated parameter dicts :meth:`build` compiles.
    """

    name: str
    num_steps: int = 1000
    seed: int = 0
    nan_dropouts: bool = True
    primitives: Tuple[Dict[str, Any], ...] = ()
    config: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        validated = tuple(_validate_primitive(dict(p)) for p in self.primitives)
        object.__setattr__(self, "primitives", validated)
        if self.config is not None:
            unknown = set(self.config) - set(SyntheticTrafficConfig().__dict__)
            if unknown:
                raise ValueError(
                    f"unknown traffic-config fields {sorted(unknown)}"
                )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "num_steps": self.num_steps,
            "seed": self.seed,
            "nan_dropouts": self.nan_dropouts,
            "primitives": [dict(p) for p in self.primitives],
        }
        if self.config is not None:
            record["config"] = dict(self.config)
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "ScenarioSpec":
        known = {"name", "num_steps", "seed", "nan_dropouts", "primitives", "config"}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"unknown scenario fields {sorted(unknown)}")
        return cls(
            name=str(record.get("name", "scenario")),
            num_steps=int(record.get("num_steps", 1000)),
            seed=int(record.get("seed", 0)),
            nan_dropouts=bool(record.get("nan_dropouts", True)),
            primitives=tuple(record.get("primitives", ())),
            config=record.get("config"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as a JSON scenario file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def build(self, network) -> StreamingTrafficFeed:
        """Compile the spec onto ``network`` into a streaming feed.

        Legacy primitives become the feed's scripted events (generated
        in-pass, bit-identical to hand-coded feeds); extended primitives are
        then applied in spec order, each with its own derived generator.
        """
        events = [
            StreamScenarioEvent(
                **{key: value for key, value in p.items() if key != "kind"},
                kind=p["kind"],
            )
            for p in self.primitives
            if p["kind"] in LEGACY_KINDS
        ]
        config = (
            SyntheticTrafficConfig(**self.config) if self.config is not None else None
        )
        feed = StreamingTrafficFeed(
            network,
            self.num_steps,
            config=config,
            seed=self.seed,
            events=events,
            nan_dropouts=self.nan_dropouts,
        )
        for index, primitive in enumerate(self.primitives):
            kind = primitive["kind"]
            if kind in LEGACY_KINDS:
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    [self.seed % (2 ** 32), _KIND_SALTS[kind], index]
                )
            )
            _EXTENDED_APPLIERS[kind](feed, primitive, rng)
        return feed


# ---------------------------------------------------------------------- #
# Extended-primitive transforms (post-generation, derived RNGs)
# ---------------------------------------------------------------------- #
def _apply_holiday_cycle(
    feed: StreamingTrafficFeed, p: Dict[str, Any], rng: np.random.Generator
) -> None:
    steps_per_day = feed.config.steps_per_day
    day_index = np.arange(feed.num_steps) // steps_per_day
    scale = np.ones(feed.num_steps)
    every = int(p["every_days"])
    if every > 0:
        holiday = day_index % every == every - 1
        scale[holiday] *= float(p["attenuation"])
    period = int(p["season_period_days"])
    if period > 0 and float(p["season_amplitude"]) != 0.0:
        t = np.arange(feed.num_steps) / (period * steps_per_day)
        scale *= 1.0 + float(p["season_amplitude"]) * np.sin(2.0 * np.pi * t)
    column = scale[:, None]
    feed.clean *= column
    feed.noise_sigma *= column
    feed.values *= column  # NaN dropouts stay NaN


def _apply_clock_skew(
    feed: StreamingTrafficFeed, p: Dict[str, Any], rng: np.random.Generator
) -> None:
    start, stop = _span(p["start"], p["duration"], feed.num_steps)
    nodes = _pick_nodes(p, feed.num_nodes, rng)
    skews = rng.integers(1, int(p["max_skew_steps"]) + 1, size=nodes.size)
    for node, skew in zip(nodes, skews):
        column = feed.values[:, node].copy()
        skew = int(min(skew, stop - start))
        # The skewed sensor reports ``skew``-step-stale readings for the
        # span; the clean oracle is untouched (the world didn't lag, the
        # sensor's clock did).
        feed.values[start + skew : stop, node] = column[start : stop - skew]


def _apply_stuck_sensor(
    feed: StreamingTrafficFeed, p: Dict[str, Any], rng: np.random.Generator
) -> None:
    start, stop = _span(p["start"], p["duration"], feed.num_steps)
    if stop <= start:
        return
    nodes = _pick_nodes(p, feed.num_nodes, rng)
    for node in nodes:
        frozen = feed.values[max(start - 1, 0), node]
        if not np.isfinite(frozen):
            frozen = feed.clean[max(start - 1, 0), node]
        feed.values[start:stop, node] = frozen


def _apply_adversarial_spike(
    feed: StreamingTrafficFeed, p: Dict[str, Any], rng: np.random.Generator
) -> None:
    start, stop = _span(p["start"], p["duration"], feed.num_steps)
    if stop <= start:
        return
    hits = rng.random((stop - start, feed.num_nodes)) < (
        float(p["rate"]) / feed.num_nodes
    )
    bump = float(p["magnitude"]) * feed.noise_sigma[start:stop]
    span = feed.values[start:stop]
    span[hits] += bump[hits]


def _apply_cold_start(
    feed: StreamingTrafficFeed, p: Dict[str, Any], rng: np.random.Generator
) -> None:
    start = min(max(int(p["start"]), 0), feed.num_steps)
    if start == 0:
        return
    nodes = _pick_nodes(p, feed.num_nodes, rng)
    dark = np.nan if feed.nan_dropouts else 0.0
    feed.values[:start, nodes] = dark
    feed.dropout_mask[:start, nodes] = True


def _apply_cascade(
    feed: StreamingTrafficFeed, p: Dict[str, Any], rng: np.random.Generator
) -> None:
    groups = max(int(p["groups"]), 1)
    partitions = np.array_split(np.arange(feed.num_nodes), groups)
    incident_len = feed.config.incident_duration_steps
    for region, nodes in enumerate(partitions):
        if nodes.size == 0:
            continue
        start, stop = _span(
            int(p["start"]) + region * int(p["stagger"]), p["duration"], feed.num_steps
        )
        if stop <= start:
            continue
        count = rng.poisson(max(float(p["rate"]) * (stop - start), 0.0))
        for _ in range(int(count)):
            node = int(rng.choice(nodes))
            at = int(rng.integers(start, stop))
            until = min(at + incident_len, feed.num_steps)
            severity = float(p["severity"]) * rng.uniform(0.6, 1.0)
            # The capacity drop hits truth and observation together — a real
            # incident, unlike the sensor-layer primitives above.
            feed.clean[at:until, node] *= 1.0 - severity
            feed.values[at:until, node] *= 1.0 - severity


_EXTENDED_APPLIERS = {
    "holiday_cycle": _apply_holiday_cycle,
    "clock_skew": _apply_clock_skew,
    "stuck_sensor": _apply_stuck_sensor,
    "adversarial_spike": _apply_adversarial_spike,
    "cold_start": _apply_cold_start,
    "cascade": _apply_cascade,
}


def load_scenario(  # repro: noqa[unused/symbol] tests/scenarios/test_dsl.py
    path: Union[str, Path]
) -> ScenarioSpec:
    """Load a :class:`ScenarioSpec` from a ``.json`` file (:meth:`ScenarioSpec.save`)."""
    path = Path(path)
    if path.suffix.lower() != ".json":
        raise ValueError(f"unsupported scenario file type {path.suffix!r} (use .json)")
    return ScenarioSpec.from_dict(json.loads(path.read_text()))
