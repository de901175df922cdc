"""Structured event log: records, trace correlation, sinks, the ring."""

import repro.obs as obs
from repro.obs.events import (
    configure_logging,
    events_emitted,
    events_since,
    last_event_seq,
    log_event,
    logging_enabled,
    recent_events,
)
from repro.obs.trace import configure_tracing, start_trace


class TestDisabled:
    def test_log_event_is_a_noop_while_disabled(self):
        assert not logging_enabled()
        emitted_before = events_emitted()
        assert log_event("drift.coverage_breach", step=3) is None
        assert recent_events() == []
        assert events_emitted() == emitted_before


class TestRecords:
    def test_record_shape_and_ring(self):
        configure_logging(enabled=True, sink=False)
        record = log_event("serving.promote", "gen-1 live", deployment="gen-1")
        assert record["kind"] == "serving.promote"
        assert record["message"] == "gen-1 live"
        assert record["deployment"] == "gen-1"
        assert record["trace_id"] is None  # no active span
        assert record["ts"] > 0
        assert recent_events() == [record]
        assert events_emitted() >= 1

    def test_trace_id_correlates_with_the_active_span(self):
        configure_logging(enabled=True, sink=False)
        configure_tracing(enabled=True, seed=0)
        with start_trace("fleet.tick") as span:
            record = log_event("drift.mean_shift", stream="s0")
        assert record["trace_id"] == span.trace_id

    def test_recent_events_honours_limit_oldest_first(self):
        configure_logging(enabled=True, sink=False)
        for index in range(5):
            log_event("k", index=index)
        tail = recent_events(limit=2)
        assert [record["index"] for record in tail] == [3, 4]

    def test_recent_events_limit_zero_returns_nothing(self):
        configure_logging(enabled=True, sink=False)
        for index in range(5):
            log_event("k", index=index)
        assert recent_events(limit=0) == []
        assert recent_events(limit=-3) == []
        assert len(recent_events(limit=5)) == 5

    def test_ring_is_bounded(self):
        configure_logging(enabled=True, sink=False, ring_size=3)
        for index in range(10):
            log_event("k", index=index)
        assert [r["index"] for r in recent_events()] == [7, 8, 9]
        assert events_emitted() >= 10  # the counter never forgets


class TestSinks:
    def test_custom_sink_receives_every_record(self):
        seen = []
        configure_logging(enabled=True, sink=seen.append)
        log_event("a")
        log_event("b")
        assert [record["kind"] for record in seen] == ["a", "b"]

    def test_sink_false_silences_but_keeps_the_ring(self):
        seen = []
        configure_logging(enabled=True, sink=seen.append)
        configure_logging(sink=False)
        log_event("quiet")
        assert seen == []
        assert recent_events()[-1]["kind"] == "quiet"

    def test_obs_facade_routes_log_sink(self):
        seen = []
        obs.configure(logging=True, log_sink=seen.append)
        log_event("via-facade")
        assert seen and seen[0]["kind"] == "via-facade"


class TestCursorReads:
    def test_events_since_delivers_exactly_once_in_order(self):
        configure_logging(enabled=True, sink=False)
        for i in range(5):
            log_event("tick.done", index=i)
        cursor = 0
        seen = []
        while True:
            batch = events_since(cursor, limit=2)
            if not batch:
                break
            seen.extend(batch)
            cursor = batch[-1][0]
        assert [record["index"] for _, record in seen] == [0, 1, 2, 3, 4]
        seqs = [seq for seq, _ in seen]
        assert seqs == sorted(seqs) and len(set(seqs)) == 5
        assert last_event_seq() == seqs[-1]

    def test_cursor_at_tail_returns_nothing(self):
        configure_logging(enabled=True, sink=False)
        log_event("a")
        assert events_since(last_event_seq()) == []

    def test_ring_overflow_drops_oldest_for_lagging_cursors(self):
        configure_logging(enabled=True, sink=False, ring_size=4)
        for i in range(10):
            log_event("tick.done", index=i)
        batch = events_since(0, limit=100)
        # Only the retained tail survives; the lagging reader silently skips.
        assert [record["index"] for _, record in batch] == [6, 7, 8, 9]

    def test_empty_ring_cursor_points_at_the_emitted_count(self):
        # With nothing retained, "now" is the process-lifetime counter, so
        # a tail started from last_event_seq() sees only *future* events.
        configure_logging(enabled=True, sink=False)
        assert last_event_seq() == events_emitted()
        cursor = last_event_seq()
        log_event("fresh")
        assert [r["kind"] for _, r in events_since(cursor)] == ["fresh"]
