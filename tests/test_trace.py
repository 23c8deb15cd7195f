"""Unit tests for the columnar trace table, its builder and read views."""

import pickle

import numpy as np
import pytest

from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.gpusim.trace import (
    COLUMNS,
    StepRecord,
    TraceBuilder,
    TraceTable,
    encode_precision,
)
from repro.search.precision import append_rerank_steps
from tests.cost_oracle import cta_cost


def mkstep(n_new=4, did_sort=True, n_exp=1, precision="float32"):
    return StepRecord(
        select_offset=0, n_expanded=n_exp, n_neighbors_fetched=8,
        n_visited_checks=8, n_new_points=n_new, dim=32,
        sort_size=20, cand_list_len=16, did_sort=did_sort, precision=precision,
    )


def test_cta_trace_aggregates():
    t = TraceTable.from_steps(
        [[mkstep(), mkstep(n_new=2, did_sort=False), mkstep(n_exp=3)]]
    ).cta(0)
    assert t.n_steps == 3
    assert t.n_sorts == 2
    assert t.n_distances == 4 + 2 + 4
    assert t.n_expanded == 1 + 1 + 3


def test_query_trace_aggregates():
    q = TraceTable.from_steps([[mkstep()], [mkstep(), mkstep()]], query_dim=32, k=5)[0]
    a, b = q.ctas
    assert q.n_ctas == 2
    assert (q.dim, q.k) == (32, 5)
    assert q.max_steps == 2
    assert q.total_distances == a.n_distances + b.n_distances
    assert q.total_sorts == 3


def test_empty_traces():
    table = TraceTable.from_steps([[]])
    t = table.cta(0)
    assert t.n_steps == 0 and t.n_sorts == 0 and t.n_distances == 0
    q = TraceTable.from_steps([], ctas_per_query=[0])[0]
    assert q.max_steps == 0 and q.n_ctas == 0
    assert len(TraceTable.from_steps([])) == 0


def test_builder_offsets_and_segment_views():
    """Slices interleave CTAs (one per wave); the frozen table is
    CTA-contiguous with each CTA's steps in append order."""
    b = TraceBuilder(4, query_offsets=np.array([0, 2, 4]))
    b.append([0, 1, 2, 3], n_new_points=[1, 2, 3, 4], dim=8, did_sort=True)
    b.append([3, 1], n_new_points=[40, 20], dim=8, did_sort=False)
    b.append([1], n_new_points=200, dim=8, did_sort=True)
    b.result_len[:] = [5, 6, 7, 8]
    t = b.build(query_dim=8, k=3)
    assert t.cta_offsets.tolist() == [0, 1, 4, 5, 7]
    assert t.query_offsets.tolist() == [0, 2, 4]
    assert t.steps_per_cta().tolist() == [1, 3, 1, 2]
    assert t.n_new_points.tolist() == [1, 2, 20, 200, 3, 4, 40]
    assert t.cta_of_row().tolist() == [0, 1, 1, 1, 2, 3, 3]
    assert t.cta_sums("n_new_points").tolist() == [1, 222, 3, 44]
    assert (t.n_rows, t.n_ctas, t.n_queries, len(t)) == (7, 4, 2, 2)
    steps = t.cta(1).steps
    assert len(steps) == 3
    assert [s.n_new_points for s in steps] == [2, 20, 200]
    assert steps[-1] == t.row(3)
    assert [s.did_sort for s in steps[1:]] == [False, True]
    assert [c.index for c in t[1].ctas] == [2, 3]
    assert [c.result_len for c in t[1].ctas] == [7, 8]
    assert t[-1].index == 1
    with pytest.raises(IndexError):
        t[2]
    with pytest.raises(IndexError):
        t.cta(4)


def test_cta_with_zero_steps_and_only_result_len():
    b = TraceBuilder(3)
    b.append([0, 2], n_new_points=3, dim=4, did_sort=True)
    b.result_len[1] = 9
    t = b.build()
    empty = t.cta(1)
    assert empty.n_steps == 0 and list(empty.steps) == []
    assert empty.result_len == 9
    assert t.cta_offsets.tolist() == [0, 1, 1, 2]
    cm = CostModel(RTX_A6000)
    cost = cm.cta_cost(empty)
    assert cost.n_steps == 0
    assert cost.total_us == cost.result_write_us > 0
    assert cm.price(t).total_us[1] == cta_cost(cm, empty).total_us


def test_mixed_precision_on_one_cta():
    """int8 traversal steps plus the float32 re-rank pass on CTA 0."""
    b = TraceBuilder(2, query_offsets=np.array([0, 2]))
    for _ in range(3):
        b.append([0, 1], n_new_points=[6, 5], dim=128, sort_size=[70, 69],
                 cand_list_len=64, did_sort=True, precision="int8")
    append_rerank_steps(b, 0, 32, 128, 0.5)
    t = b.build(query_dim=128, k=16)
    assert [s.precision for s in t.cta(0).steps] == ["int8"] * 3 + ["float32"]
    assert [s.precision for s in t.cta(1).steps] == ["int8"] * 3
    assert t.cta(0).steps[-1].n_new_points == 32
    cm = CostModel(RTX_A6000)
    priced = cm.price(t)
    for c in range(2):
        ref = cta_cost(cm, t.cta(c))
        assert priced[c] == ref
        assert priced.total_us[c] == ref.total_us


def test_pickle_round_trip():
    b = TraceBuilder(2, query_offsets=np.array([0, 2]))
    b.append([0, 1], n_new_points=[1, 2], dim=16, did_sort=[False, True],
             best_dist=[np.nan, 0.25], precision="pq")
    b.result_len[:] = [4, 4]
    t = b.build(query_dim=128, k=4)
    back = pickle.loads(pickle.dumps(t))
    for c in COLUMNS:
        assert np.array_equal(getattr(back, c), getattr(t, c), equal_nan=True)
    assert back.cta_offsets.tolist() == t.cta_offsets.tolist()
    assert back.query_offsets.tolist() == t.query_offsets.tolist()
    assert back.result_len.tolist() == t.result_len.tolist()
    assert (back.query_dim, back.k) == (128, 4)
    view = pickle.loads(pickle.dumps(t[0]))
    assert view.ctas[1].steps == t[0].ctas[1].steps
    assert view.ctas[1].steps[0].precision == "pq"


def test_gather_shares_or_concatenates():
    b = TraceBuilder(3)
    b.append([0, 1, 2], n_new_points=[1, 2, 3], dim=4, did_sort=True)
    t = b.build(query_dim=4, k=2)
    assert TraceTable.gather([t.cta(i) for i in range(3)]) is t
    assert TraceTable.gather(list(t)) is t
    g = TraceTable.gather([t.cta(2), t.cta(0)])
    assert g is not t
    assert g.n_new_points.tolist() == [3, 1]
    assert g.query_offsets.tolist() == [0, 1, 2]
    sub = t.take_queries([2, 1])
    assert sub.n_new_points.tolist() == [3, 2]
    both = TraceTable.concat([sub, t])
    assert both.n_queries == 5 and both.n_new_points.tolist() == [3, 2, 1, 2, 3]


def test_unknown_precision_rejected():
    assert encode_precision("int8") == 1
    with pytest.raises(ValueError, match="unknown precision"):
        encode_precision("fp16")
    with pytest.raises(ValueError, match="unknown precision"):
        TraceBuilder(1).append(0, dim=4, did_sort=False, precision="float")
    with pytest.raises(ValueError, match="unknown precision"):
        TraceTable.from_steps([[mkstep(precision="exotic")]])
