"""MicroBatcher close/put_group races.

``put_group`` checks the closed flag and then enqueues; a group that loses
that race lands *behind* the shutdown sentinel.  Two mechanisms keep it
from being dropped: ``next_batch`` re-queues a sentinel it meets mid-batch
(pushing it behind whatever the race left after it), and the server's
dispatcher runs a final drain pass (``poll_timeout=0.0``) after seeing the
shutdown.  A one-window ``submit`` is a group of one and loses the race the
same way.  These tests pin both paths by staging the queue exactly as the
race would leave it.
"""

import numpy as np

from repro.serving.batching import InferenceRequest, MicroBatcher


def _window(tag):
    return np.full((4, 3), float(tag))


def _race_request(tag):
    # A put_group that passed the closed check before close() set the flag
    # enqueues its list after the sentinel; stage that directly.
    return InferenceRequest(window=_window(tag))


def _put_one(batcher, tag):
    batcher.put_group([_race_request(tag)])


def _tags(batch):
    return [request.window[0, 0] for request in batch]


class TestMidBatchSentinel:
    def test_sentinel_met_mid_batch_is_requeued_not_swallowed(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait_ms=50.0)
        _put_one(batcher, 1)
        _put_one(batcher, 2)
        batcher.close()
        # Queue: [w1, w2, Shutdown].  One batch returns both requests, the
        # sentinel is re-queued, and the next call reports closed.
        assert _tags(batcher.next_batch(poll_timeout=0.1)) == [1.0, 2.0]
        assert batcher.next_batch(poll_timeout=0.1) is None

    def test_request_behind_the_sentinel_survives_the_requeue(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait_ms=50.0)
        _put_one(batcher, 1)
        batcher.close()
        batcher._queue.put([_race_request(2)])
        # Queue: [w1, Shutdown, w2].  The first batch stops at the sentinel
        # and re-queues it at the tail — behind the late request — so the
        # second batch still delivers w2 before shutdown is reported.
        assert _tags(batcher.next_batch(poll_timeout=0.1)) == [1.0]
        assert _tags(batcher.next_batch(poll_timeout=0.1)) == [2.0]
        assert batcher.next_batch(poll_timeout=0.1) is None


    def test_group_behind_the_sentinel_survives_the_requeue(self):
        batcher = MicroBatcher(max_batch_size=2, max_wait_ms=50.0)
        _put_one(batcher, 1)
        batcher.close()
        batcher._queue.put([_race_request(2), _race_request(3), _race_request(4)])
        # Queue: [w1, Shutdown, group(2, 3, 4)].  The sentinel is re-queued
        # behind the group, which is then cut at max_batch_size; its rest
        # still comes before the shutdown is reported.
        assert _tags(batcher.next_batch(poll_timeout=0.1)) == [1.0]
        assert _tags(batcher.next_batch(poll_timeout=0.1)) == [2.0, 3.0]
        assert _tags(batcher.next_batch(poll_timeout=0.1)) == [4.0]
        assert batcher.next_batch(poll_timeout=0.1) is None


class TestShutdownDrain:
    def test_drain_pass_recovers_request_behind_the_sentinel(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait_ms=50.0)
        batcher.close()
        batcher._queue.put([_race_request(5)])
        # Queue: [Shutdown, w].  The dispatcher sees None (shutdown), then
        # its drain pass (poll_timeout=0.0) recovers the late request.
        assert batcher.next_batch(poll_timeout=0.1) is None
        assert _tags(batcher.next_batch(poll_timeout=0.0)) == [5.0]
        # Nothing else: the drain ends on an empty, still-closed queue.
        assert batcher.next_batch(poll_timeout=0.0) is None

    def test_drain_pass_recovers_a_whole_group_behind_the_sentinel(self):
        batcher = MicroBatcher(max_batch_size=2, max_wait_ms=50.0)
        batcher.close()
        batcher._queue.put([_race_request(5), _race_request(6), _race_request(7)])
        assert batcher.next_batch(poll_timeout=0.1) is None
        assert _tags(batcher.next_batch(poll_timeout=0.0)) == [5.0, 6.0]
        assert _tags(batcher.next_batch(poll_timeout=0.0)) == [7.0]
        assert batcher.next_batch(poll_timeout=0.0) is None

    def test_closed_empty_queue_reports_none_forever(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait_ms=1.0)
        batcher.close()
        assert batcher.next_batch(poll_timeout=0.05) is None
        assert batcher.next_batch(poll_timeout=0.0) is None
        assert batcher.closed

    def test_submit_after_close_is_refused(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait_ms=1.0)
        batcher.close()
        try:
            _put_one(batcher, 1)
        except RuntimeError as error:
            assert "closed" in str(error)
        else:
            raise AssertionError("put_group after close must raise")
