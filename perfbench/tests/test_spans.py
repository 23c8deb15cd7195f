"""Self-time arithmetic and the tracer's wrapping of missing entry points."""

import pytest

from perfbench.layers import Hook, Tracer, _inclusive_under
from perfbench.spans import (
    Recorder,
    Span,
    self_seconds_by_name,
    self_times,
    union_length,
)


def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(0, 4), (1, 2), (2, 3)]) == 4.0
    assert union_length([(1, 2), (0, 4)]) == 4.0


def test_self_time_subtracts_nested_children():
    spans = [
        Span("a", None, "serve", 0.0, 10.0),
        Span("b", "a", "search", 1.0, 4.0),
        Span("c", "b", "price", 2.0, 3.0),
        Span("d", "a", "engine", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0})
    # Self times partition the root's interval.
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_merged():
    # Two worker legs running side by side under one map span.
    spans = [
        Span("m", None, "parallel.map", 0.0, 10.0),
        Span("w1", "m", "parallel.leg", 1.0, 8.0),
        Span("w2", "m", "parallel.leg", 2.0, 9.0),
    ]
    by_name = self_seconds_by_name(spans)
    assert by_name["parallel.map"] == pytest.approx(2.0)
    assert by_name["parallel.leg"] == pytest.approx(14.0)


def test_children_are_clipped_to_the_parent():
    spans = [
        Span("p", None, "outer", 0.0, 5.0),
        Span("c", "p", "inner", 3.0, 8.0),  # e.g. a worker clock offset
    ]
    assert self_times(spans)["p"] == pytest.approx(3.0)


def test_same_name_nesting_sums_to_outer_duration():
    spans = [
        Span("a", None, "search", 0.0, 6.0),
        Span("b", "a", "search", 1.0, 3.0),
    ]
    assert self_seconds_by_name(spans)["search"] == pytest.approx(6.0)


def test_recorder_nests_spans_by_call_order():
    rec = Recorder()
    with rec.span("outer") as outer:
        with rec.span("inner"):
            pass
    inner_span, outer_span = rec.spans
    assert inner_span.parent == outer == outer_span.sid
    assert outer_span.parent is None


def test_worker_spans_merge_under_the_parent():
    parent = Recorder()
    worker = Recorder()
    with parent.span("parallel.map") as sid:
        worker.reset(root=sid)
        with worker.span("search"):
            pass
        worker.count("search.sorts", 3)
    parent.merge(*worker.export())
    leg = [s for s in parent.spans if s.name == "search"][0]
    assert leg.parent == sid
    assert parent.counters["search.sorts"] == 3


def test_inclusive_under_finds_spans_below_an_ancestor():
    spans = [
        Span("h", None, "hybrid.search", 0.0, 10.0),
        Span("x", "h", "wrapper", 0.0, 9.0),
        Span("s1", "x", "search", 1.0, 4.0),
        Span("s2", None, "search", 11.0, 12.0),  # not below hybrid.search
    ]
    assert _inclusive_under(spans, "search", "hybrid.search") == 3.0


def test_missing_entry_point_makes_its_metrics_absent():
    hooks = (
        Hook("perfbench.spans", "no_such_function", lambda rec: None,
             ("made.up_s",)),
        Hook("no.such.module", "f", lambda rec: None, ("other.up_s",)),
    )
    tracer = Tracer(hooks)
    with tracer:
        pass
    assert tracer.absent == {"made.up_s", "other.up_s"}


def test_tracer_restores_what_it_wrapped():
    import perfbench.spans as mod

    original = mod.union_length
    hook = Hook("perfbench.spans", "union_length",
                lambda rec: (lambda fn: (lambda *a: -1.0)), ("x",))
    with Tracer((hook,)):
        assert mod.union_length([(0, 1)]) == -1.0
    assert mod.union_length is original
