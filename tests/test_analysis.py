"""Unit tests for the analysis utilities."""

import numpy as np
import pytest

from repro.analysis.recall import OperatingPoint, point_at_recall, sweep_candidate_sizes
from repro.analysis.report import banner, format_series, format_table
from repro.analysis.stats import (
    batch_step_spread,
    bubble_waste_rate,
    latency_percentiles,
    step_statistics,
)
from repro.core.serving import QueryRecord
from repro.gpusim.trace import StepRecord, TraceTable


def mktraces(*n_steps):
    """One single-CTA query per entry, with that many steps past the seed."""
    ctas = [
        [StepRecord(0, 1, 8, 8, 4, 16, 20, 16, True) for _ in range(n + 1)]
        for n in n_steps
    ]
    return TraceTable.from_steps(ctas, ctas_per_query=[1] * len(ctas),
                                 query_dim=16, k=5)


def test_step_statistics():
    traces = mktraces(10, 20, 30, 100)
    st = step_statistics(traces)
    assert st.min == 10 and st.max == 100
    assert st.mean == pytest.approx(40.0)
    assert st.max_over_mean == pytest.approx(2.5)
    with pytest.raises(ValueError):
        step_statistics(mktraces())


def test_batch_step_spread():
    traces = mktraces(10, 20, 30, 60)
    spread = batch_step_spread(traces, 2)
    assert spread[0] == (10, 20, 2.0)
    assert spread[1] == (30, 60, 2.0)
    with pytest.raises(ValueError):
        batch_step_spread(traces, 0)


def test_bubble_waste_rate():
    recs = []
    for i, (own, ret) in enumerate(((10.0, 20.0), (20.0, 20.0))):
        r = QueryRecord(i, 0.0)
        r.gpu_start_us = 0.0
        r.gpu_end_us = own
        r.complete_us = ret
        recs.append(r)
    # bubbles: 10 and 0; active: 10 and 20 -> waste = 10/40
    assert bubble_waste_rate(recs) == pytest.approx(0.25)
    assert bubble_waste_rate([]) == 0.0


def test_latency_percentiles():
    recs = []
    for i in range(10):
        r = QueryRecord(i, 0.0)
        r.dispatch_us = 0.0
        r.complete_us = float(i)
        recs.append(r)
    p = latency_percentiles(recs, (50,))
    assert p[50] == pytest.approx(4.5)


def test_sweep_and_point_at_recall():
    gt = np.array([[1, 2], [3, 4]])

    def make_report(knob):
        ids = gt if knob >= 10 else np.zeros_like(gt)
        return ids, float(100 - knob), float(knob)

    pts = sweep_candidate_sizes(make_report, [5, 10, 20], gt)
    assert [p.recall for p in pts] == [0.0, 1.0, 1.0]
    best = point_at_recall(pts, 0.9)
    assert best.knob == 10
    fallback = point_at_recall([pts[0]], 0.9)
    assert fallback.knob == 5
    with pytest.raises(ValueError):
        point_at_recall([], 0.5)


def test_format_table_and_series():
    t = format_table(["a", "bb"], [(1, 2.5), ("x", 3.25)], title="T")
    lines = t.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "2.5" in t and "3.2" in t
    s = format_series("curve", [1, 2], [0.5, 1.0])
    assert s == "curve: 1=0.5 2=1.0"
    b = banner("fig1", "x\ny")
    assert b == "[fig1] x\n[fig1] y"
