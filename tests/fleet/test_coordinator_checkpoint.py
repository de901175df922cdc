"""Regression: partial quorum evidence must survive a checkpoint round trip.

Found by the ``checkpoint/missing-attr`` analyzer rule: the coordinator's
``_drifted`` map (region -> stream -> drift step) was assigned in
``__init__`` but absent from ``get_state``, so a fleet killed one drift
short of quorum forgot every drift already noted and the coordinated
refit never fired after the restore — the fleet-level analogue of the
PR-6 detector-state bug.
"""

import numpy as np

from repro.streaming.promotion import RefitCoordinator, RefitPolicy


def _coordinator(**policy_kwargs):
    policy = RefitPolicy(
        quorum=3, window=50, cooldown=10, background=False, mode="immediate",
        **policy_kwargs,
    )
    return RefitCoordinator(refit_fn=lambda region, recents: "model", policy=policy)


class TestDriftedSurvivesRoundTrip:
    def test_partial_quorum_is_in_the_state_dict(self):
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=10)
        coordinator.note_drift("north", "s2", step=12)
        state = coordinator.get_state()
        assert state["drifted"] == {"north": {"s1": 10, "s2": 12}}

    def test_restored_coordinator_remembers_drifted_streams(self):
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=10)
        coordinator.note_drift("north", "s2", step=12)

        restored = _coordinator()
        restored.set_state(coordinator.get_state())
        assert sorted(restored.drifted_streams("north", step=20)) == ["s1", "s2"]

    def test_quorum_completes_after_a_restore(self):
        """The kill lands one drift short of quorum; the third drift after
        the restore must trigger the coordinated refit."""
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=10)
        coordinator.note_drift("north", "s2", step=12)
        assert coordinator.maybe_trigger(14, lambda region: {}) == []

        restored = _coordinator()
        restored.set_state(coordinator.get_state())
        restored.note_drift("north", "s3", step=15)
        assert restored.maybe_trigger(16, lambda region: {}) == ["north"]

    def test_without_drifted_state_the_refit_was_lost(self):
        """Documents the pre-fix failure mode: dropping ``drifted`` from the
        snapshot (an old-format checkpoint) loses the partial quorum, and
        only streams drifting *after* the restore count."""
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=10)
        coordinator.note_drift("north", "s2", step=12)
        old_format = {
            key: value
            for key, value in coordinator.get_state().items()
            if key != "drifted"
        }

        restored = _coordinator()
        restored.set_state(old_format)
        restored.note_drift("north", "s3", step=15)
        assert restored.maybe_trigger(16, lambda region: {}) == []

    def test_counters_and_cooldown_still_round_trip(self):
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=1)
        coordinator.note_drift("north", "s2", step=2)
        coordinator.note_drift("north", "s3", step=3)
        assert coordinator.maybe_trigger(4, lambda region: {}) == ["north"]

        restored = _coordinator()
        restored.set_state(coordinator.get_state())
        # Cooldown carries over: re-noting drifts right away cannot re-trigger.
        for stream in ("s1", "s2", "s3"):
            restored.note_drift("north", stream, step=6)
        assert restored.maybe_trigger(7, lambda region: {}) == []
        state = restored.get_state()
        assert state["triggers"] == 1
        assert state["last_trigger"] == {"north": 4}
