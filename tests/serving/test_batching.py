"""Micro-batching queue: grouping, deadlines, shutdown."""

import threading
import time

import numpy as np
import pytest

from repro.serving import InferenceRequest, MicroBatcher


def _window(value=0.0):
    return np.full((3, 2), value)


def _put_one(batcher, value=0.0):
    """Enqueue one request the way ``InferenceServer.submit`` does: a group of one."""
    batcher.put_group([InferenceRequest(window=_window(value))])


class TestMicroBatcher:
    def test_collects_queued_requests_into_one_batch(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait_ms=20.0)
        for i in range(5):
            _put_one(batcher, i)
        batch = batcher.next_batch()
        assert len(batch) == 5
        assert [int(r.window[0, 0]) for r in batch] == [0, 1, 2, 3, 4]

    def test_respects_max_batch_size(self):
        batcher = MicroBatcher(max_batch_size=3, max_wait_ms=50.0)
        for i in range(7):
            _put_one(batcher, i)
        assert len(batcher.next_batch()) == 3
        assert len(batcher.next_batch()) == 3
        assert len(batcher.next_batch()) == 1

    def test_deadline_flushes_partial_batch(self):
        batcher = MicroBatcher(max_batch_size=100, max_wait_ms=10.0)
        _put_one(batcher)
        start = time.perf_counter()
        batch = batcher.next_batch()
        elapsed = time.perf_counter() - start
        assert len(batch) == 1
        assert elapsed < 1.0  # flushed by the deadline, not the poll timeout

    def test_empty_queue_returns_empty_list(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_ms=1.0)
        assert batcher.next_batch(poll_timeout=0.01) == []

    def test_close_returns_none_and_rejects_submissions(self):
        batcher = MicroBatcher()
        batcher.close()
        assert batcher.next_batch() is None
        with pytest.raises(RuntimeError):
            _put_one(batcher)

    def test_late_submitter_joins_open_batch(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_ms=200.0)
        _put_one(batcher, 1)

        def late():
            time.sleep(0.02)
            _put_one(batcher, 2)

        thread = threading.Thread(target=late)
        thread.start()
        batch = batcher.next_batch()
        thread.join()
        assert len(batch) == 2

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_ms=-1.0)


def _group(values):
    return [InferenceRequest(window=_window(v)) for v in values]


class TestGroups:
    def test_group_is_cut_at_max_batch_size_without_waiting(self):
        # max_wait_ms=0 closes a batch of separately queued requests at one;
        # a group arrived together, so it still fills whole batches.
        batcher = MicroBatcher(max_batch_size=3, max_wait_ms=0.0)
        batcher.put_group(_group(range(7)))
        batches = [batcher.next_batch(poll_timeout=0.0) for _ in range(4)]
        assert [[int(r.window[0, 0]) for r in b] for b in batches] == [
            [0, 1, 2], [3, 4, 5], [6], []
        ]

    def test_group_rest_opens_the_next_batch_and_waits_for_more(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_ms=50.0)
        batcher.put_group(_group(range(6)))
        _put_one(batcher, 6)
        assert len(batcher.next_batch()) == 4
        # The group's last two plus the single queued behind it.
        assert [int(r.window[0, 0]) for r in batcher.next_batch()] == [4, 5, 6]

    def test_group_fills_a_batch_opened_by_a_single_request(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_ms=50.0)
        _put_one(batcher, 0)
        batcher.put_group(_group(range(1, 6)))
        assert [int(r.window[0, 0]) for r in batcher.next_batch()] == [0, 1, 2, 3]
        assert [int(r.window[0, 0]) for r in batcher.next_batch()] == [4, 5]

    def test_depth_counts_requests_not_queue_items(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_ms=0.0)
        batcher.put_group(_group(range(6)))
        _put_one(batcher, 6)
        assert batcher.depth == 7
        batcher.next_batch()
        assert batcher.depth == 3  # two carried from the group, one queued

    def test_empty_group_is_not_queued_and_closed_refuses(self):
        batcher = MicroBatcher()
        batcher.put_group([])
        assert batcher.depth == 0
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.put_group(_group([1]))
