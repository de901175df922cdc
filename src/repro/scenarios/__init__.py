"""Scenario DSL and chaos harness for the streaming/fleet stack.

Two composable halves:

* :mod:`repro.scenarios.dsl` — declarative stream scenarios built from
  traffic primitives, saved as and loaded from JSON files
  (:meth:`ScenarioSpec.save`, :func:`load_scenario`).  A spec holding the
  primitive a canonical scripted feed hard-codes compiles
  **bit-identically** to its ``StreamingTrafficFeed.scenario`` counterpart,
  and six extended primitives add holiday/seasonal cycles, sensor clock
  skew, stuck sensors, adversarial spikes, cold-start corridors and
  cascading multi-region incidents;
* :mod:`repro.scenarios.chaos` — deterministic system-level fault injection
  (kill-and-restore from checkpoint, raising/hanging model passes, dying
  refit threads, cache thrash) plus the :class:`ChaosSchedule` /
  :func:`run_fleet_scenario` driver that scripts them onto fleet ticks.

Quick taste::

    spec = load_scenario("scenarios/holiday_regime.json")
    feed = spec.build(network)                      # a StreamingTrafficFeed

    chaos = ChaosSchedule().at(
        120, scheduled_kill_and_restore(ckpt_dir, make_server,
                                        detector_factory=detectors)
    )
    fleet, results = run_fleet_scenario(fleet, feeds, chaos=chaos)
"""

from repro.scenarios.chaos import (
    ChaosSchedule,
    FlakyRefit,
    PredictFault,
    kill_and_restore,
    scheduled_kill_and_restore,
    thrash_cache,
)
from repro.scenarios.driver import run_fleet_scenario
from repro.scenarios.dsl import (
    LEGACY_KINDS,
    PRIMITIVE_DEFAULTS,
    ScenarioSpec,
    load_scenario,
)

__all__ = [
    "ScenarioSpec",
    "load_scenario",
    "LEGACY_KINDS",
    "PRIMITIVE_DEFAULTS",
    "ChaosSchedule",
    "PredictFault",
    "FlakyRefit",
    "kill_and_restore",
    "scheduled_kill_and_restore",
    "thrash_cache",
    "run_fleet_scenario",
]
