"""Property-based tests (hypothesis) for core data structures/invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.costmodel import CostModel, CostParams, bitonic_stage_count
from repro.gpusim.device import RTX_A6000
from repro.gpusim.engine import list_schedule
from repro.gpusim.trace import PRECISIONS, StepRecord, TraceTable
from repro.search.candidates import CandidateList
from repro.search.topk import heap_merge, merge_sorted_lists, select_topk
from repro.search.visited import VisitedBitmap
from tests import cost_oracle as oracle

f32 = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=32)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), f32), min_size=0, max_size=60
    ),
    st.integers(1, 16),
)
def test_candidate_list_always_sorted_and_bounded(items, cap):
    cl = CandidateList(cap)
    for chunk_start in range(0, len(items), 7):
        chunk = items[chunk_start : chunk_start + 7]
        seen = set(cl.ids[: cl.size].tolist())
        ids = []
        ds = []
        for i, d in chunk:
            if i not in seen:
                seen.add(i)
                ids.append(i)
                ds.append(d)
        if ids:
            cl.merge(np.array(ids), np.array(ds, dtype=np.float32))
        assert cl.size <= cap
        d_live = cl.dists[: cl.size]
        assert (np.diff(d_live) >= 0).all()
        # ids unique
        assert len(set(cl.ids[: cl.size].tolist())) == cl.size


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 500), f32), min_size=0, max_size=20),
        min_size=0,
        max_size=6,
    ),
    st.integers(1, 12),
)
def test_heap_merge_equals_global_topk(lists_raw, k):
    lists = []
    for lst in lists_raw:
        if not lst:
            continue
        ids = np.array([i for i, _ in lst], dtype=np.int64)
        d = np.array([x for _, x in lst], dtype=np.float32)
        order = np.lexsort((ids, d))
        lists.append((ids[order], d[order]))
    a_ids, a_d = heap_merge(lists, k)
    b_ids, b_d = merge_sorted_lists(lists, k)
    assert np.allclose(a_d, b_d)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 999), min_size=0, max_size=200))
def test_bitmap_set_semantics(ids):
    bm = VisitedBitmap(1000)
    ref: set[int] = set()
    arr = np.array(ids, dtype=np.int64)
    for chunk in np.array_split(arr, 4) if arr.size else []:
        fresh = bm.test_and_set(chunk)
        for x, f in zip(chunk.tolist(), fresh.tolist()):
            if f:
                assert x not in ref
                ref.add(x)
            else:
                assert x in ref or chunk.tolist().count(x) > 1
    assert bm.count() == len(ref)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=0, max_size=40),
    st.integers(1, 8),
)
def test_list_schedule_invariants(durs, conc):
    sched = list_schedule(durs, conc)
    # no more than `conc` blocks overlap at any time
    events = []
    for s, e in zip(sched.start_us, sched.end_us):
        assert e >= s
        events.append((s, 1))
        events.append((e, -1))
    events.sort(key=lambda x: (x[0], x[1]))
    live = peak = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)
    assert peak <= conc
    if durs:
        assert sched.kernel_end_us == max(sched.end_us)
        # work conservation: makespan within bound of optimal
        lower = max(max(durs), sum(durs) / conc)
        assert sched.kernel_end_us <= lower + max(durs) + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 1 << 16))
def test_bitonic_stage_count_monotone(n):
    assert bitonic_stage_count(n) <= bitonic_stage_count(n + 1) or (
        bitonic_stage_count(n) == bitonic_stage_count(n + 1)
    )
    k = int(np.ceil(np.log2(max(n, 2))))
    assert bitonic_stage_count(n) == k * (k + 1) // 2 or n == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 50), f32), min_size=1, max_size=60),
    st.integers(1, 10),
)
def test_select_topk_is_minimal(items, k):
    ids = np.array([i for i, _ in items], dtype=np.int64)
    d = np.array([x for _, x in items], dtype=np.float32)
    out_ids, out_d = select_topk(ids, d, k)
    # output sorted, unique, and contains the global best distance
    assert (np.diff(out_d) >= 0).all()
    assert len(set(out_ids.tolist())) == len(out_ids)
    assert out_d[0] == d.min()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 1000.0, allow_nan=False),  # arrival
            st.integers(0, 3),  # priority
            st.one_of(st.none(), st.floats(0.0, 2000.0, allow_nan=False)),  # deadline
        ),
        min_size=0,
        max_size=30,
    )
)
def test_query_manager_conservation(specs):
    """Every submitted query is eventually dispatched or dropped, never both."""
    from repro.core.query_manager import ManagedQuery, QueryManager
    from repro.core.serving import QueryJob

    m = QueryManager()
    for i, (arr, prio, dl) in enumerate(specs):
        m.submit(ManagedQuery(QueryJob(i, arr, (1.0,), 8, 4),
                              priority=prio, deadline_us=dl))
    seen = []
    t = 0.0
    while m:
        q = m.next_ready(t)
        if q is None:
            nxt = m.next_arrival_us()
            t = nxt if nxt is not None else t + 10_000.0
            continue
        seen.append(q.job.query_id)
    dropped = [q.job.query_id for q in m.dropped]
    assert sorted(seen + dropped) == list(range(len(specs)))
    assert not (set(seen) & set(dropped))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 200.0, allow_nan=False),  # arrival
            st.floats(0.1, 50.0, allow_nan=False),  # duration
        ),
        min_size=1,
        max_size=24,
    ),
    st.integers(1, 6),  # slots
    st.integers(1, 3),  # host threads
)
def test_dynamic_engine_conservation(specs, n_slots, threads):
    """Every job completes exactly once with a consistent timeline."""
    from repro.core.dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine
    from repro.core.serving import QueryJob
    from repro.gpusim.costmodel import CostModel
    from repro.gpusim.device import RTX_A6000

    jobs = [
        QueryJob(i, arr, (dur, dur), 32, 4) for i, (arr, dur) in enumerate(specs)
    ]
    eng = DynamicBatchEngine(
        RTX_A6000, CostModel(RTX_A6000),
        DynamicBatchConfig(n_slots=n_slots, n_parallel=2, k=4,
                           host_threads=threads),
    )
    rep = eng.serve(jobs)
    assert sorted(r.query_id for r in rep.records) == list(range(len(specs)))
    for r in rep.records:
        assert r.arrival_us <= r.dispatch_us <= r.gpu_start_us
        assert r.gpu_start_us <= r.gpu_end_us <= r.complete_us
    # GPU busy accounting is exact.
    import pytest as _pytest

    assert rep.gpu_cta_busy_us == _pytest.approx(
        sum(sum(j.cta_durations_us) for j in jobs)
    )


@settings(max_examples=15, deadline=None)
@given(
    st.integers(20, 80),  # n points
    st.integers(2, 6),  # dim
    st.integers(2, 8),  # degree
    st.integers(0, 3),  # seed
)
def test_cagra_graph_invariants(n, dim, degree, seed):
    """CAGRA builds keep fixed out-degree, no self loops, valid ids —
    for arbitrary point clouds (including degenerate ones)."""
    from repro.data.synthetic import latent_mixture
    from repro.graphs.cagra import build_cagra

    if n <= degree:
        return
    pts = latent_mixture(n, dim, intrinsic_dim=min(4, dim), seed=seed)
    g = build_cagra(pts, graph_degree=degree)
    assert (g.degrees == degree).all()
    for v in range(n):
        nb = g.neighbors(v)
        assert v not in nb
        assert len(set(nb.tolist())) == degree


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(0, 19), max_size=6), min_size=20, max_size=20))
def test_graph_index_matrix_roundtrip(lists):
    """CSR ↔ dense neighbour-matrix conversion is lossless (after the
    documented de-dup-free semantics: keep order, keep duplicates)."""
    from repro.graphs.base import GraphIndex

    arrs = [np.array(lst, dtype=np.int32) for lst in lists]
    g = GraphIndex.from_neighbor_lists(arrs)
    g2 = GraphIndex.from_matrix(g.to_matrix())
    for v in range(20):
        assert np.array_equal(g.neighbors(v), g2.neighbors(v))


# ------------------------------------------------------------ cost model
def _pow2_edges():
    """Sizes at 2^k - 1, 2^k and 2^k + 1 — where the padded bitonic networks
    change width — plus arbitrary small sizes (0 and 1 included)."""
    edge = st.integers(1, 20).flatmap(
        lambda k: st.sampled_from([(1 << k) - 1, 1 << k, (1 << k) + 1])
    )
    return st.one_of(st.integers(0, 700), edge)


_steps = st.builds(
    StepRecord,
    select_offset=st.integers(0, 300),
    n_expanded=st.integers(0, 8),
    n_neighbors_fetched=st.integers(0, 600),
    n_visited_checks=st.one_of(st.just(0), st.integers(0, 600)),
    n_new_points=st.one_of(st.just(0), st.integers(0, 600)),
    dim=st.sampled_from([1, 4, 8, 96, 120, 128, 200, 960]),
    sort_size=_pow2_edges(),
    cand_list_len=_pow2_edges(),
    did_sort=st.booleans(),
    best_dist=st.floats(allow_nan=True),
    precision=st.sampled_from(PRECISIONS),
)
_cycles = st.floats(0.01, 200.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(_steps, max_size=10), min_size=1, max_size=5),
    st.lists(st.integers(0, 64), min_size=5, max_size=5),
    st.sampled_from([None, 7, 32, 128]),
    st.builds(CostParams, fma_iter_cycles=_cycles, shuffle_cycles=_cycles,
              cmpex_cycles=_cycles, scan_cycles=_cycles, bitmap_cycles=_cycles,
              step_fixed_cycles=_cycles, int8_mac_pack=st.sampled_from([1.0, 4.0]),
              lut_lookup_cycles=_cycles),
)
def test_table_pricing_matches_scalar_oracle_bitwise(ctas, result_len, threads, params):
    cm = CostModel(RTX_A6000, params, threads_per_cta=threads)
    table = TraceTable.from_steps(ctas, result_len=result_len[: len(ctas)])
    phases = np.stack(cm.step_phases(table), axis=1)
    rows = [s for steps in ctas for s in steps]
    for i, s in enumerate(rows):
        ref = oracle.step_cost(cm, s)
        assert phases[i].tolist() == [ref.select_us, ref.fetch_us, ref.filter_us,
                                      ref.distance_us, ref.sort_us]
        assert cm.step_cost(s) == ref
    priced = cm.price(table)
    for c in range(len(ctas)):
        ref = oracle.cta_cost(cm, table.cta(c))
        assert priced[c] == ref
        assert priced.total_us[c] == ref.total_us


def _step(**kw):
    base = dict(select_offset=0, n_expanded=1, n_neighbors_fetched=32,
                n_visited_checks=32, n_new_points=16, dim=128, sort_size=80,
                cand_list_len=64, did_sort=True, precision="float32")
    base.update(kw)
    return StepRecord(**base)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2000), st.integers(0, 2000),
    st.integers(1, 2048), st.integers(1, 2048),
    st.integers(0, 5000), st.integers(0, 5000),
    st.sampled_from(PRECISIONS),
)
def test_step_cost_monotone(n_a, n_b, d_a, d_b, s_a, s_b, precision):
    cm = CostModel(RTX_A6000)
    n_lo, n_hi = sorted((n_a, n_b))
    d_lo, d_hi = sorted((d_a, d_b))
    s_lo, s_hi = sorted((s_a, s_b))

    def total(**kw):
        return cm.step_cost(_step(precision=precision, **kw)).total_us

    assert total(n_new_points=n_lo) <= total(n_new_points=n_hi)
    assert total(dim=d_lo) <= total(dim=d_hi)
    assert total(sort_size=s_lo) <= total(sort_size=s_hi)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4000), st.integers(1, 4096))
def test_int8_distance_never_dearer_than_float32(n_new, dim):
    cm = CostModel(RTX_A6000)

    def dist(precision):
        step = _step(n_new_points=n_new, dim=dim, precision=precision)
        return cm.step_cost(step).distance_us

    assert dist("int8") <= dist("float32")
