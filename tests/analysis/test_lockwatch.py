"""Unit tests for the runtime lock-order sanitizer."""

import queue
import threading

import pytest

from repro.analysis import lockwatch
from repro.analysis.lockwatch import LockOrderError, LockWatcher


class TestCycleDetection:
    def test_opposite_orders_across_threads_record_a_cycle(self):
        with lockwatch.watching(raise_on_cycle=False) as watch:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            with lock_a:
                with lock_b:
                    pass

            def reversed_order():
                with lock_b:
                    with lock_a:
                        pass

            thread = threading.Thread(target=reversed_order)
            thread.start()
            thread.join(timeout=10.0)
        assert len(watch.violations) == 1
        assert "cycle" in str(watch.violations[0])
        with pytest.raises(LockOrderError):
            watch.assert_acyclic()

    def test_cycle_raises_before_blocking_by_default(self):
        with lockwatch.watching() as watch:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            with lock_a:
                with lock_b:
                    pass
            errors = []

            def reversed_order():
                try:
                    with lock_b:
                        with lock_a:  # never blocks: raises at edge insert
                            pass
                except LockOrderError as error:
                    errors.append(error)

            thread = threading.Thread(target=reversed_order)
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert len(errors) == 1
        assert len(errors[0].cycle) >= 2

    def test_three_lock_cycle_through_transitive_path(self):
        with lockwatch.watching(raise_on_cycle=False) as watch:
            locks = [threading.Lock() for _ in range(3)]
            for first, second in ((0, 1), (1, 2)):
                with locks[first]:
                    with locks[second]:
                        pass

            def closing_edge():
                with locks[2]:
                    with locks[0]:
                        pass

            thread = threading.Thread(target=closing_edge)
            thread.start()
            thread.join(timeout=10.0)
        assert len(watch.violations) == 1
        assert len(watch.violations[0].cycle) == 4  # a -> b -> c -> a

    def test_consistent_global_order_is_clean(self):
        with lockwatch.watching() as watch:
            lock_a = threading.Lock()
            lock_b = threading.Lock()

            def forward():
                with lock_a:
                    with lock_b:
                        pass

            threads = [threading.Thread(target=forward) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            forward()
        watch.assert_acyclic()
        assert ((_name(watch, lock_a)), (_name(watch, lock_b))) in watch.edges()


def _name(watch, lock):
    return lock.name


class TestSelfDeadlock:
    def test_plain_lock_reentry_raises(self):
        with lockwatch.watching():
            lock = threading.Lock()
            with pytest.raises(LockOrderError, match="self-deadlock"):
                with lock:
                    with lock:
                        pass

    def test_rlock_reentry_is_allowed(self):
        with lockwatch.watching() as watch:
            lock = threading.RLock()
            with lock:
                with lock:
                    pass
        watch.assert_acyclic()

    def test_nonblocking_reentry_reports_failure_not_error(self):
        with lockwatch.watching():
            lock = threading.Lock()
            with lock:
                assert lock.acquire(blocking=False) is False


class TestIntegration:
    def test_queue_and_condition_work_under_patching(self):
        with lockwatch.watching() as watch:
            channel = queue.Queue()
            channel.put("x")
            assert channel.get(timeout=1.0) == "x"
            with pytest.raises(queue.Empty):
                channel.get(timeout=0.01)
            condition = threading.Condition()
            with condition:
                condition.notify_all()
        watch.assert_acyclic()

    def test_release_out_of_order_keeps_bookkeeping_sane(self):
        with lockwatch.watching() as watch:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            lock_a.acquire()
            lock_b.acquire()
            lock_a.release()  # out of acquisition order
            lock_c = threading.Lock()
            with lock_c:  # only b is held: edge b -> c, never a -> c
                pass
            lock_b.release()
        names = {pair for pair in watch.edges()}
        assert (lock_b.name, lock_c.name) in names or len(names) >= 1
        watch.assert_acyclic()

    def test_factories_are_restored_after_the_block(self):
        original_lock = threading.Lock
        original_rlock = threading.RLock
        with lockwatch.watching():
            assert threading.Lock is not original_lock
        assert threading.Lock is original_lock
        assert threading.RLock is original_rlock

    @pytest.mark.parametrize(
        "kind, steps, expected",
        [
            ("Lock", ["acquire", "release"], [False, True, False]),
            ("RLock", ["acquire", "acquire", "release", "release"], [False, True, True, True, False]),
        ],
    )
    def test_locked_tracks_acquire_and_release_like_the_plain_lock(self, kind, steps, expected):
        plain = getattr(threading, kind)()
        # A plain RLock has no locked() before Python 3.14; on the owning
        # thread _is_owned() gives the same answer.
        plain_locked = getattr(plain, "locked", None) or plain._is_owned
        with lockwatch.watching():
            watched = getattr(threading, kind)()
            assert isinstance(watched, lockwatch.TrackedLock)
            watched_states, plain_states = [watched.locked()], [plain_locked()]
            for step in steps:
                getattr(watched, step)()
                getattr(plain, step)()
                watched_states.append(watched.locked())
                plain_states.append(plain_locked())
        assert watched_states == plain_states == expected

    def test_stats_count_tracked_locks_and_edges(self):
        with lockwatch.watching() as watch:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            with lock_a:
                with lock_b:
                    pass
            stats = watch.stats()
        assert stats["locks_tracked"] >= 2
        assert stats["edges"] >= 1
        assert stats["max_held_by_one_thread"] >= 2
        assert stats["violations"] == 0

    def test_explicit_wrap_without_patching(self):
        watcher = LockWatcher()
        watcher.enable()
        lock_a = watcher.wrap(threading.Lock(), name="a")
        lock_b = watcher.wrap(threading.Lock(), name="b")
        with lock_a:
            with lock_b:
                pass
        assert ("a", "b") in watcher.edges()
        watcher.reset()
        assert watcher.edges() == []
