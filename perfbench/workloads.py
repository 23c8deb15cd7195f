"""The four serve workloads.

Each workload replays a fixed fixture, the way a serving benchmark
replays SIFT1M under a recorded traffic trace: ``FIXTURE_SEED`` draws the
corpus, the pool of candidate queries, the graph, the arrival schedule
and the update stream. The run's seed draws which queries of the pool
fill that schedule, in what order, and the search entry points. With the
fixture fixed, runs at different seeds differ only in the queries served,
which keeps the spread of every metric across seeds small.

Offered rates are constants here, never derived from a measurement taken
during the run, so two commits see the same arrivals at the same seed.
Open loops run on the simulated clock: a query's ``arrival_us`` is its
scheduled send time and its end-to-end latency counts from it, so the
generator is never late.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import (
    ALGASSystem,
    HybridSystem,
    ServeConfig,
    ShardedServer,
    build_cagra,
    build_nsw_fast,
    load_dataset,
    recall,
)
from repro.core.serving import ServeReport
from repro.data import datasets as _datasets
from repro.data.workload import Poisson
from repro.gpusim.memory import footprint_bytes
from repro.graphs.dynamic import DynamicGraph
from repro.streaming import UpdateStream, serve_while_update

from . import spans

#: seed of every corpus, query pool, index, arrival schedule and update stream
FIXTURE_SEED = 20250
#: candidate queries per corpus; a run sends a seeded subset of them
QUERY_POOL = 2048


@dataclass
class Outcome:
    """What one serve produced, in the shape the checks and metrics read."""

    serve: ServeReport
    recall: float
    offered: list[int]
    #: (n_queries, k) result rows, or None where the runner grades itself
    ids: np.ndarray | None = None
    #: workload-specific counts that must all be zero
    integrity: dict[str, int] = field(default_factory=dict)

    @property
    def n_offered(self) -> int:
        return len(self.offered)

    @property
    def n_failed(self) -> int:
        """Offered queries without an answer: dropped, shed, failed or lost."""
        return self.n_offered - len(self.serve.records)


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    recall_floor: float
    setup: Callable[[dict, int], object]
    serve: Callable[[object, object, dict, int], Outcome]
    #: per-serve input made outside the timed serve call (e.g. a fresh
    #: copy of a graph the serve mutates)
    prepare: Callable[[object, dict], object] = lambda state, p: None
    close: Callable[[object], None] = lambda state: None


@dataclass(frozen=True)
class Inputs:
    base: np.ndarray
    metric: str
    queries: np.ndarray  # the run's queries, in sending order
    gt: np.ndarray  # their exact ground truth

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def dim(self) -> int:
        return self.base.shape[1]


def _inputs(p: dict, n_queries: int, seed: int) -> Inputs:
    """Load the corpus and its query pool with exact ground truth, then
    pick the run's queries. The in-process dataset cache is cleared first
    so that every set-up pays the full cost, not only the first."""
    cache = getattr(_datasets, "_load_cached", None)
    if cache is not None:
        cache.cache_clear()
    with spans.active().span("data.load"):
        ds = load_dataset(p["dataset"], n=p["n"], n_queries=QUERY_POOL,
                          gt_k=p["k"], seed=FIXTURE_SEED)
    pick = np.random.default_rng(seed).choice(QUERY_POOL, n_queries,
                                              replace=False)
    return Inputs(ds.base, ds.metric, ds.queries[pick], ds.gt_at(p["k"])[pick])


def _cagra(pts, metric: str, degree: int):
    with spans.active().span("graphs.build"):
        return build_cagra(pts, graph_degree=degree, metric=metric,
                           seed=FIXTURE_SEED)


# ------------------------------------------------------------ sift-closed
SIFT_CLOSED = {
    "dataset": "sift1m-mini", "n": 10_000, "dim": 128, "n_queries": 1024,
    "graph": "cagra", "degree": 16, "ctas_per_query": 8, "l_total": 128,
    "k": 16, "slots": 16, "precision": "float32", "loop": "closed",
}


def _sift_closed_setup(p: dict, seed: int):
    ds = _inputs(p, p["n_queries"], seed)
    graph = _cagra(ds.base, ds.metric, p["degree"])
    system = ALGASSystem(
        ds.base, graph, metric=ds.metric, k=p["k"], l_total=p["l_total"],
        batch_size=p["slots"], n_parallel=p["ctas_per_query"], seed=seed,
    )
    return ds, system


def _sift_closed_serve(state, prepared, p: dict, seed: int) -> Outcome:
    ds, system = state
    rep = system.serve(ds.queries)
    return Outcome(rep.serve, float(recall(rep.ids, ds.gt)),
                   list(range(ds.queries.shape[0])), ids=rep.ids)


# ------------------------------------------------------ gist-sharded-open
# The offered rate is 82% of this shape's closed-loop capacity: served
# with ServeConfig(seed=seed) and no workload, its sim_qps is
# 584,497-584,713 at seeds 101-103 (0.82 x 584,600 = 480k).
GIST_SHARDED = {
    "dataset": "gist1m-mini", "n": 8_000, "dim": 960, "n_queries": 1024,
    "shards": 4, "graph": "cagra", "degree": 16, "precision": "int8",
    "ctas_per_query": 4, "l_total": 64, "k": 16, "slots": 16,
    "workers": 2, "parallel_mode": "process", "loop": "open",
    "arrivals": "poisson", "rate_qps": 480_000.0,
}


def _gist_sharded_setup(p: dict, seed: int):
    ds = _inputs(p, p["n_queries"], seed)
    server = ShardedServer(
        ds.base,
        functools.partial(_cagra, metric=ds.metric, degree=p["degree"]),
        n_gpus=p["shards"], seed=FIXTURE_SEED, parallelism=p["workers"],
        parallel_mode=p["parallel_mode"], metric=ds.metric, k=p["k"],
        l_total=p["l_total"], batch_size=p["slots"],
        max_parallel=p["ctas_per_query"], precision=p["precision"],
    )
    return ds, server


def _gist_sharded_serve(state, prepared, p: dict, seed: int) -> Outcome:
    ds, server = state
    cfg = ServeConfig(
        workload=Poisson(rate_qps=p["rate_qps"], seed=FIXTURE_SEED), seed=seed,
    )
    rep = server.serve(ds.queries, cfg)
    return Outcome(rep.serve, float(recall(rep.ids, ds.gt)),
                   list(range(ds.queries.shape[0])), ids=rep.ids)


def _gist_sharded_close(state) -> None:
    state[1].close()


# ------------------------------------------------------------- sift-churn
SIFT_CHURN = {
    "dataset": "sift1m-mini", "n": 6_000, "dim": 128, "events": 1024, "graph": "cagra", "degree": 16, "ef": 64, "k": 16,
    "slots": 8, "loop": "open", "arrivals": "poisson", "rate_qps": 40_000.0,
    "insert_qps": 50_000.0, "delete_qps": 15_000.0, "wave_us": 10_000.0,
    "compact_threshold": 0.03,
}


def _sift_churn_setup(p: dict, seed: int):
    ds = _inputs(p, p["events"], seed)
    graph = _cagra(ds.base, ds.metric, p["degree"])
    return ds, graph


def _sift_churn_prepare(state, p: dict) -> DynamicGraph:
    # serve_while_update mutates the graph, so every serve starts from a
    # fresh copy of the built one.
    ds, graph = state
    return DynamicGraph(ds.base, graph, metric=ds.metric, ef=p["ef"])


def _sift_churn_serve(state, dyn, p: dict, seed: int) -> Outcome:
    # The run's seed enters through the queries picked at set-up; the
    # dynamic graph always enters at its medoid.
    ds, _ = state
    stream = UpdateStream(insert_qps=p["insert_qps"],
                          delete_qps=p["delete_qps"], wave_us=p["wave_us"],
                          seed=FIXTURE_SEED)
    rep = serve_while_update(
        dyn, ds.queries, stream,
        workload=Poisson(rate_qps=p["rate_qps"], seed=FIXTURE_SEED),
        n_queries=p["events"], k=p["k"], slots=p["slots"],
        compact_threshold=p["compact_threshold"],
    )
    return Outcome(
        rep.serve, float(rep.stream_recall), list(range(rep.n_events)),
        integrity={
            "tombstoned_answers": rep.tombstoned_answers,
            "duplicate_rows": rep.duplicate_rows,
            "lost": rep.lost,
        },
    )


# ---------------------------------------------------- gist-hybrid-oversub
GIST_HYBRID = {
    "dataset": "gist1m-mini", "n": 6_000, "dim": 960, "n_queries": 1024,
    "graph": "nsw_fast", "m": 16, "oversubscription": 3, "pilot_dim": 64,
    "n_candidates": 16, "refine_steps": 1, "k": 10, "l_total": 64,
    "slots": 8, "host_threads": 16, "loop": "closed",
}


def _gist_hybrid_setup(p: dict, seed: int):
    ds = _inputs(p, p["n_queries"], seed)
    with spans.active().span("graphs.build"):
        graph = build_nsw_fast(ds.base, m=p["m"], metric=ds.metric,
                               seed=FIXTURE_SEED)
    capacity = footprint_bytes(ds.n, ds.dim, graph.n_edges, p["slots"],
                               p["slots"], p["k"]) // p["oversubscription"]
    system = HybridSystem(
        ds.base, graph, capacity_bytes=capacity, pilot_dim=p["pilot_dim"],
        n_candidates=p["n_candidates"], refine_steps=p["refine_steps"],
        metric=ds.metric, k=p["k"], l_total=p["l_total"],
        batch_size=p["slots"], host_threads=p["host_threads"],
        seed=FIXTURE_SEED,
    )
    return ds, system


def _gist_hybrid_serve(state, prepared, p: dict, seed: int) -> Outcome:
    ds, system = state
    rep = system.serve(ds.queries, ServeConfig(seed=seed))
    plan = system.pilot.plan
    return Outcome(
        rep.serve, float(recall(rep.ids, ds.gt)),
        list(range(ds.queries.shape[0])), ids=rep.ids,
        integrity={"pilot_over_capacity": int(plan is None or not plan.fits)},
    )


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sift-closed", SIFT_CLOSED, recall_floor=0.80,
                 setup=_sift_closed_setup, serve=_sift_closed_serve),
        Workload("gist-sharded-open", GIST_SHARDED, recall_floor=0.90,
                 setup=_gist_sharded_setup, serve=_gist_sharded_serve,
                 close=_gist_sharded_close),
        Workload("sift-churn", SIFT_CHURN, recall_floor=0.78,
                 setup=_sift_churn_setup, serve=_sift_churn_serve,
                 prepare=_sift_churn_prepare),
        Workload("gist-hybrid-oversub", GIST_HYBRID, recall_floor=0.80,
                 setup=_gist_hybrid_setup, serve=_gist_hybrid_serve),
    )
}
