"""Assorted small-surface tests filling coverage gaps."""

import numpy as np
import pytest

from repro.core import ALGASSystem
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_A6000
from repro.gpusim.engine import Simulator


def test_simulator_after_validates():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.after(-1.0, lambda s: None)


def test_single_cta_algas_with_random_entries(ds, graph):
    """n_parallel=1 still uses random entries when entries_per_cta > 1."""
    sys_ = ALGASSystem(ds.base, graph, metric=ds.metric, k=8, l_total=32,
                       batch_size=2, n_parallel=1, entries_per_cta=3, seed=4)
    rep = sys_.serve(ds.queries[:6])
    assert rep.ids.shape == (6, 8)
    assert all(t.n_ctas == 1 for t in rep.traces)
    # the seed step visited 3 entry candidates
    assert all(t.ctas[0].steps[0].n_visited_checks == 3 for t in rep.traces)


def test_single_cta_algas_medoid_entry(ds, graph):
    sys_ = ALGASSystem(ds.base, graph, metric=ds.metric, k=8, l_total=32,
                       batch_size=2, n_parallel=1, entries_per_cta=1)
    rep = sys_.serve(ds.queries[:4])
    assert all(t.ctas[0].steps[0].n_visited_checks == 1 for t in rep.traces)


def test_step_durations_match_step_costs(ds, graph, entry):
    from repro.search import intra_cta_search

    cm = CostModel(RTX_A6000)
    tr = intra_cta_search(ds.base, graph, ds.queries[0], 8, 32, entry,
                          metric=ds.metric).trace
    durs = cm.step_durations_us(tr)
    assert len(durs) == tr.n_steps
    assert all(d >= 0 for d in durs)
    assert sum(durs) == pytest.approx(
        cm.cta_duration_us(tr) - cm.cta_cost(tr).result_write_us
    )


def test_report_meta_round_trip(ds, graph):
    sys_ = ALGASSystem(ds.base, graph, metric=ds.metric, k=8, l_total=32,
                       batch_size=2, max_parallel=2)
    rep = sys_.serve(ds.queries[:4])
    assert rep.serve.meta["mode"] == "dynamic"
    assert rep.serve.meta["dropped"] == 0
    assert rep.serve.pcie.utilization(rep.serve.makespan_us) > 0


def test_host_threads_auto_scaling(ds, graph):
    small = ALGASSystem(ds.base, graph, metric=ds.metric, k=8, l_total=32,
                        batch_size=8, max_parallel=2)
    big = ALGASSystem(ds.base, graph, metric=ds.metric, k=8, l_total=32,
                      batch_size=64, max_parallel=2)
    assert small.host_threads == 1
    assert big.host_threads == 4
    with pytest.raises(ValueError):
        ALGASSystem(ds.base, graph, metric=ds.metric, k=8, l_total=32,
                    batch_size=8, max_parallel=2, host_threads=0)


def test_graph_stats_repr_and_flat_serving(ds):
    """FlatIndex trace prices through the same pipeline vocabulary."""
    from repro.search.bruteforce import FlatIndex

    idx = FlatIndex(ds.base, metric=ds.metric)
    r = idx.search(ds.queries[0], 5)
    qt = r.trace.table[0]
    assert (qt.dim, qt.k) == (ds.dim, 5)
    cm = CostModel(RTX_A6000)
    assert cm.query_gpu_time_us(qt) > 0
