"""Bit-exact parity: the vectorized lockstep engine vs the scalar oracle.

The vectorized backend must be a pure performance change: identical result
ids, byte-identical distances, and step-for-step equal traces (the cost
model prices traces, so trace equality implies identical serving numbers).
Covered here: all four mini corpora x both graph families x greedy and
beam-extend maintenance, plus ragged batch sizes (B=1, B=17, B > slots)
and the system-level ``search_all`` entry points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import ALGASSystem
from repro.data import load_dataset
from repro.graphs import build_cagra, build_nsw_fast
from repro.search import (
    BeamConfig,
    LockstepEngine,
    batched_intra_cta_search,
    batched_multi_cta_search,
    intra_cta_search,
    make_entries,
    multi_cta_search,
)

DATASETS = ["sift1m-mini", "gist1m-mini", "glove200-mini", "nytimes-mini"]
BEAMS = {"greedy": None, "beam": BeamConfig(offset_beam=8, beam_width=4)}


@pytest.fixture(scope="module", params=DATASETS)
def pds(request):
    return load_dataset(request.param, n=1200, n_queries=17, gt_k=8, seed=5)


@pytest.fixture(scope="module", params=["cagra", "nsw"])
def pgraph(request, pds):
    if request.param == "cagra":
        return build_cagra(pds.base, graph_degree=10, metric=pds.metric)
    return build_nsw_fast(pds.base, m=6, metric=pds.metric)


def assert_same_result(a, b):
    """a (scalar) and b (vectorized) must match bit-for-bit."""
    assert np.array_equal(a.ids, b.ids)
    assert np.asarray(a.dists).tobytes() == np.asarray(b.dists).tobytes()
    ta, tb = a.trace, b.trace
    ctas_a = ta.ctas if hasattr(ta, "ctas") else [ta]
    ctas_b = tb.ctas if hasattr(tb, "ctas") else [tb]
    assert len(ctas_a) == len(ctas_b)
    for ca, cb in zip(ctas_a, ctas_b):
        assert ca.result_len == cb.result_len
        assert ca.steps == cb.steps


@pytest.mark.parametrize("beam_key", list(BEAMS))
def test_intra_cta_parity(pds, pgraph, beam_key):
    beam = BEAMS[beam_key]
    rng = np.random.default_rng(42)
    n = pds.base.shape[0]
    entries = [make_entries(n, 1, 2, rng)[0] for _ in range(len(pds.queries))]
    batch = batched_intra_cta_search(
        pds.base, pgraph, pds.queries, 8, 32, entries,
        metric=pds.metric, beam=beam,
    )
    assert len(batch) == len(pds.queries)
    for i, q in enumerate(pds.queries):
        scalar = intra_cta_search(
            pds.base, pgraph, q, 8, 32, entries[i],
            metric=pds.metric, beam=beam,
        )
        assert_same_result(scalar, batch[i])


@pytest.mark.parametrize("beam_key", list(BEAMS))
def test_multi_cta_parity(pds, pgraph, beam_key):
    beam = BEAMS[beam_key]
    rng = np.random.default_rng(7)
    n = pds.base.shape[0]
    n_ctas = 4
    entries = [make_entries(n, n_ctas, 2, rng) for _ in range(len(pds.queries))]
    batch = batched_multi_cta_search(
        pds.base, pgraph, pds.queries, 8, 64, n_ctas,
        metric=pds.metric, beam=beam, entries=entries,
    )
    for i, q in enumerate(pds.queries):
        scalar = multi_cta_search(
            pds.base, pgraph, q, 8, 64, n_ctas,
            metric=pds.metric, beam=beam, entries=entries[i],
        )
        assert_same_result(scalar, batch[i])
        for (ia, da), (ib, db) in zip(
            scalar.extra["per_cta"], batch[i].extra["per_cta"]
        ):
            assert np.array_equal(ia, ib)
            assert np.asarray(da).tobytes() == np.asarray(db).tobytes()


@pytest.mark.parametrize("beam_key", list(BEAMS))
def test_traced_and_untraced_search_agree(pds, pgraph, beam_key, monkeypatch):
    """Recording traces does not change the search: both modes apply the
    merge bound filter and return byte-identical ids/dists, and the traced
    run still equals the scalar oracle step for step."""
    beam = BEAMS[beam_key]
    rng = np.random.default_rng(11)
    n_ctas = 4
    entries = [
        make_entries(pds.base.shape[0], n_ctas, 2, rng)
        for _ in range(len(pds.queries))
    ]
    merged = []
    inner = LockstepEngine._merge_pairs

    def counting(self, rows, ids, dists, counts):
        merged.append(ids.size)
        return inner(self, rows, ids, dists, counts)

    monkeypatch.setattr(LockstepEngine, "_merge_pairs", counting)

    def run(record_trace):
        return batched_multi_cta_search(
            pds.base, pgraph, pds.queries, 8, 64, n_ctas,
            metric=pds.metric, beam=beam, entries=entries,
            record_trace=record_trace,
        )

    traced = run(True)
    scored = traced[0].trace.table.n_new_points.sum()
    # the filter ran in trace mode: fewer pairs merged than were scored
    assert sum(merged) < scored
    plain = run(False)
    for a, b in zip(traced, plain):
        assert b.trace is None
        assert np.array_equal(a.ids, b.ids)
        assert a.dists.tobytes() == b.dists.tobytes()
    for i, q in enumerate(pds.queries):
        scalar = multi_cta_search(
            pds.base, pgraph, q, 8, 64, n_ctas,
            metric=pds.metric, beam=beam, entries=entries[i],
        )
        assert_same_result(scalar, traced[i])


def test_batch_of_one_matches_scalar(pds, pgraph):
    entries = np.array([3, 11])
    scalar = intra_cta_search(
        pds.base, pgraph, pds.queries[0], 8, 32, entries, metric=pds.metric
    )
    batch = batched_intra_cta_search(
        pds.base, pgraph, pds.queries[:1], 8, 32, [entries], metric=pds.metric
    )
    assert len(batch) == 1
    assert_same_result(scalar, batch[0])


def test_backend_switch_delegates(pds, pgraph):
    """``backend="vectorized"`` on the scalar entry points returns the
    lockstep engine's (identical) result."""
    entries = np.array([5])
    a = intra_cta_search(
        pds.base, pgraph, pds.queries[1], 8, 32, entries, metric=pds.metric,
        backend="scalar",
    )
    b = intra_cta_search(
        pds.base, pgraph, pds.queries[1], 8, 32, entries, metric=pds.metric,
        backend="vectorized",
    )
    assert_same_result(a, b)
    with pytest.raises(ValueError, match="backend"):
        intra_cta_search(
            pds.base, pgraph, pds.queries[1], 8, 32, entries,
            metric=pds.metric, backend="simd",
        )
    with pytest.raises(ValueError, match="backend"):
        multi_cta_search(
            pds.base, pgraph, pds.queries[1], 8, 64, 4,
            metric=pds.metric, backend="simd",
        )


def test_system_search_all_parity(pds, pgraph):
    """ALGAS system level: B=17 queries through batch_size=8 slots
    (B > slots), scalar vs vectorized backends, traces included."""
    kw = dict(k=8, l_total=64, batch_size=8, metric=pds.metric, seed=3)
    s_vec = ALGASSystem(pds.base, pgraph, backend="vectorized", **kw)
    s_sca = ALGASSystem(pds.base, pgraph, backend="scalar", **kw)
    iv, dv, tv = s_vec.search_all(pds.queries)
    is_, ds_, ts_ = s_sca.search_all(pds.queries)
    assert np.array_equal(iv, is_)
    assert dv.tobytes() == ds_.tobytes()
    for a, b in zip(tv, ts_):
        assert len(a.ctas) == len(b.ctas)
        for ca, cb in zip(a.ctas, b.ctas):
            assert ca.steps == cb.steps
            assert ca.result_len == cb.result_len


def test_serve_report_records_backend(pds):
    graph = build_cagra(pds.base, graph_degree=10, metric=pds.metric)
    sys_ = ALGASSystem(
        pds.base, graph, k=8, l_total=64, batch_size=4, metric=pds.metric
    )
    rep = sys_.serve(pds.queries[:6])
    assert rep.serve.meta["search_backend"] == "vectorized"


def test_system_rejects_unknown_backend(pds):
    graph = build_cagra(pds.base, graph_degree=10, metric=pds.metric)
    with pytest.raises(ValueError, match="backend"):
        ALGASSystem(pds.base, graph, k=8, l_total=64, backend="gpu")
