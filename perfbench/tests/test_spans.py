"""Span bookkeeping: parents per thread, inclusive and self time; GC
pauses."""

import gc
import threading
import time

import pytest

from perfbench.spans import GCWatch, Span, Tracer, collect, summarize


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a:outer", 0.0, 10.0, "1:1", -1),
        Span("b:mid", 1.0, 7.0, "1:1", 0),
        Span("c:leaf", 2.0, 5.0, "1:1", 1),
        Span("c:leaf", 8.0, 9.0, "1:1", 0),
    ]
    groups, names = summarize(spans)
    assert groups["a"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert groups["b"]["self_s"] == pytest.approx(6.0 - 3.0)
    assert groups["c"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert groups["a"]["busy_s"] == pytest.approx(10.0)
    assert names["c:leaf"]["calls"] == 2
    total_self = sum(g["self_s"] for g in groups.values())
    assert total_self == pytest.approx(10.0)


def test_reentrant_group_counts_busy_once():
    spans = [
        Span("x:read", 0.0, 4.0, "1:1", -1),
        Span("x:solve", 1.0, 3.0, "1:1", 0),
    ]
    groups, _ = summarize(spans)
    assert groups["x"]["busy_s"] == pytest.approx(4.0)
    assert groups["x"]["self_s"] == pytest.approx(4.0)


def test_spans_on_other_threads_are_not_children():
    spans = [
        Span("a:main", 0.0, 10.0, "1:1", -1),
        Span("b:worker", 2.0, 6.0, "1:2", -1),
    ]
    groups, _ = summarize(spans)
    assert groups["a"]["self_s"] == pytest.approx(10.0)
    assert groups["b"]["self_s"] == pytest.approx(4.0)


def test_live_tracer_nests_per_thread():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def outer():
        wrapped_leaf()
        wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf:f", leaf)
    wrapped_outer = tracer.wrap("outer:f", outer)
    threads = [threading.Thread(target=wrapped_outer) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()

    assert len(tracer.spans) == 9
    for i, span in enumerate(tracer.spans):
        if span.name == "leaf:f":
            parent = tracer.spans[span.parent]
            assert parent.name == "outer:f"
            assert parent.thread == span.thread
            assert parent.start <= span.start <= span.end <= parent.end
        else:
            assert span.parent == -1
    groups, names = summarize(tracer.spans)
    roots = sum(s.duration for s in tracer.spans if s.parent == -1)
    assert groups["outer"]["self_s"] + groups["leaf"]["self_s"] == (
        pytest.approx(roots)
    )
    assert names["leaf:f"]["calls"] == 6


def test_patch_and_close_restore_the_original():
    class Box:
        def get(self, x):
            return x + 1

        @staticmethod
        def twice(x):
            return 2 * x

    original = Box.__dict__["get"]
    tracer = Tracer()
    tracer.patch(Box, "get", "box:get", count=lambda self, x: x)
    tracer.patch(Box, "twice", "box:twice")
    assert Box().get(3) == 4
    assert Box.twice(3) == 6
    tracer.close()
    assert Box.__dict__["get"] is original
    assert isinstance(Box.__dict__["twice"], staticmethod)
    _, names = summarize(tracer.spans)
    assert names["box:get"] == {"calls": 1, "units": 3}
    assert names["box:twice"]["calls"] == 1


def test_gc_watch_times_collections_but_not_the_benchmarks_own():
    with GCWatch() as watch:
        collect()
        assert watch.collections == [0, 0, 0]
        gc.collect()
    assert watch.collections[2] == 1
    (start, end), = watch.intervals
    assert end >= start and watch.pauses == [end - start]
