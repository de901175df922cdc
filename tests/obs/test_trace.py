"""Tracing core: span trees, cross-thread handoff, ring wrap, sampling."""

import threading
import time

import repro.obs as obs
from repro.obs.trace import (
    NOOP_SPAN,
    TraceStore,
    configure_tracing,
    current_context,
    current_span,
    record_span,
    start_span,
    start_trace,
    trace_store,
)


class TestDisabled:
    def test_everything_is_noop_when_disabled(self):
        assert start_trace("t") is NOOP_SPAN
        assert start_span("s") is NOOP_SPAN
        assert current_span() is None
        assert current_context() is None
        assert record_span("r", None, 0.0, 1.0) is None
        with start_trace("t") as span:
            assert span is NOOP_SPAN
            assert span.trace_id is None
        assert len(trace_store()) == 0

    def test_noop_span_absorbs_the_full_span_api(self):
        span = start_trace("t", attrs={"k": 1})
        assert span.set_attr("x", 2) is span
        assert span.finish() is span
        assert span.context is None


class TestSpanTrees:
    def test_ids_are_deterministic_under_a_fixed_seed(self):
        for _ in range(2):
            configure_tracing(enabled=True, seed=0, capacity=64)
            with start_trace("root") as root:
                with start_span("child"):
                    pass
            assert root.trace_id == "t00000001"
            assert root.span_id == "s00000001"
            ids = [s.span_id for s in trace_store().spans("t00000001")]
            assert sorted(ids) == ["s00000001", "s00000002"]

    def test_nesting_builds_parentage_through_the_thread_stack(self):
        configure_tracing(enabled=True, seed=0, capacity=64)
        with start_trace("root") as root:
            assert current_span() is root
            with start_span("mid") as mid:
                assert current_span() is mid
                with start_span("leaf") as leaf:
                    pass
            assert current_span() is root
        assert current_span() is None
        assert mid.parent_id == root.span_id
        assert leaf.parent_id == mid.span_id
        [tree] = trace_store().traces()
        assert tree["trace_id"] == root.trace_id
        assert tree["num_spans"] == 3
        [rendered_root] = tree["spans"]
        assert rendered_root["name"] == "root"
        [rendered_mid] = rendered_root["children"]
        [rendered_leaf] = rendered_mid["children"]
        assert [rendered_mid["name"], rendered_leaf["name"]] == ["mid", "leaf"]

    def test_explicit_parent_overrides_the_stack(self):
        configure_tracing(enabled=True, seed=0, capacity=64)
        with start_trace("root") as root:
            ctx = root.context
        span = start_span("late", parent=ctx)
        span.finish()
        assert span.trace_id == root.trace_id
        assert span.parent_id == root.span_id

    def test_to_dict_carries_duration_and_attrs(self):
        configure_tracing(enabled=True, seed=0, capacity=64)
        with start_trace("root", attrs={"k": "v"}) as root:
            time.sleep(0.001)
        record = root.to_dict()
        assert record["name"] == "root"
        assert record["attrs"] == {"k": "v"}
        assert record["duration_ms"] > 0.0


class TestCrossThreadHandoff:
    def test_worker_records_spans_under_the_submitters_trace(self):
        """The serving-layer idiom: capture a context, hand it to a worker,

        and let the worker attribute its measured interval to the submitting
        trace retroactively — parentage must survive the thread hop.
        """
        configure_tracing(enabled=True, seed=0, capacity=64)
        handoff = {}

        def worker():
            # The worker thread has an empty span stack of its own...
            assert current_span() is None
            start = time.perf_counter()
            end = start + 0.005
            batch_ctx = record_span(
                "batch.execute", handoff["ctx"], start, end, attrs={"batch": 1}
            )
            record_span("model.forward", batch_ctx, start, end + 0.001)

        with start_trace("gateway.predict") as root:
            with start_span("router.submit") as submit:
                handoff["ctx"] = current_context()
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        assert handoff["ctx"] == submit.context
        [tree] = trace_store().traces()
        assert tree["num_spans"] == 4
        chain = []
        node = tree["spans"][0]
        while True:
            chain.append(node["name"])
            if not node["children"]:
                break
            [node] = node["children"]
        assert chain == [
            "gateway.predict",
            "router.submit",
            "batch.execute",
            "model.forward",
        ]
        assert root.trace_id == tree["trace_id"]

    def test_record_span_under_missing_context_records_nothing(self):
        configure_tracing(enabled=True, seed=0, capacity=64)
        assert record_span("orphan", None, 0.0, 1.0) is None
        assert len(trace_store()) == 0


class TestRingWrap:
    def test_capacity_evicts_oldest_spans_first(self):
        store = TraceStore(capacity=4)
        configure_tracing(enabled=True, seed=0, capacity=64)
        spans = []
        for index in range(6):
            with start_trace(f"t{index}") as span:
                pass
            spans.append(span)
            store.add(span)
        assert len(store) == 4
        stats = store.stats
        assert stats["spans_added"] == 6
        assert stats["spans_evicted"] == 2
        assert stats["spans_stored"] == 4
        # The two oldest traces fell off; the four freshest survive.
        survivors = {trace["trace_id"] for trace in store.traces()}
        assert survivors == {span.trace_id for span in spans[2:]}

    def test_limit_keeps_the_freshest_and_zero_returns_nothing(self):
        store = TraceStore(capacity=8)
        configure_tracing(enabled=True, seed=0, capacity=64)
        spans = []
        for index in range(3):
            with start_trace(f"t{index}") as span:
                pass
            spans.append(span)
            store.add(span)
        assert [t["trace_id"] for t in store.traces(limit=2)] == [
            spans[2].trace_id, spans[1].trace_id,
        ]
        assert store.traces(limit=0) == []
        assert store.traces(limit=-1) == []

    def test_partially_evicted_trace_still_renders(self):
        store = TraceStore(capacity=2)
        configure_tracing(enabled=True, seed=0, capacity=64)
        with start_trace("root") as root:
            with start_span("a") as a:
                pass
            with start_span("b") as b:
                pass
        for span in (root, a, b):
            store.add(span)
        # Root was evicted: the two children surface as synthetic roots.
        [tree] = store.traces()
        assert tree["num_spans"] == 2
        assert {record["name"] for record in tree["spans"]} == {"a", "b"}

    def test_clear_empties_the_ring(self):
        store = TraceStore(capacity=4)
        configure_tracing(enabled=True, seed=0, capacity=64)
        with start_trace("t") as span:
            pass
        store.add(span)
        store.clear()
        assert len(store) == 0
        assert store.traces() == []


class TestSampling:
    def _sampled_flags(self, seed, n=32, rate=0.5):
        configure_tracing(enabled=True, sample_rate=rate, seed=seed, capacity=256)
        flags = []
        for index in range(n):
            with start_trace(f"t{index}") as span:
                flags.append(span is not NOOP_SPAN)
        return flags

    def test_same_seed_samples_the_same_traces(self):
        first = self._sampled_flags(seed=123)
        second = self._sampled_flags(seed=123)
        assert first == second
        assert any(first) and not all(first)  # rate 0.5 keeps some, drops some

    def test_different_seeds_diverge(self):
        first = self._sampled_flags(seed=123)
        second = self._sampled_flags(seed=321)
        assert first != second

    def test_unsampled_traces_store_nothing_and_children_follow(self):
        configure_tracing(enabled=True, sample_rate=0.0, seed=0, capacity=64)
        with start_trace("t") as span:
            assert span is NOOP_SPAN
            assert start_span("child") is NOOP_SPAN
            assert record_span("r", span.context, 0.0, 1.0) is None
        assert len(trace_store()) == 0

    def test_obs_configure_seed_reaches_the_sampler(self):
        obs.configure(tracing=True, sample_rate=0.5, seed=99)
        first = []
        for index in range(16):
            with start_trace(f"t{index}") as span:
                first.append(span is not NOOP_SPAN)
        obs.configure(tracing=True, sample_rate=0.5, seed=99)
        second = []
        for index in range(16):
            with start_trace(f"t{index}") as span:
                second.append(span is not NOOP_SPAN)
        assert first == second

    def test_reset_restores_full_sampling(self):
        obs.configure(tracing=True, sample_rate=0.5, seed=7)
        obs.reset()
        obs.configure(enabled=True)
        sampled = []
        for index in range(20):
            with start_trace(f"t{index}") as span:
                sampled.append(span is not NOOP_SPAN)
        assert all(sampled)
