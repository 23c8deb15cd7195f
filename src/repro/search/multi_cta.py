"""Multi-CTA search: several CTAs cooperate on one query.

§III-B / §IV-B: to use more threads than one CTA offers, a query is served
by ``T`` CTAs, each running the intra-CTA algorithm on its own (smaller)
candidate list from its own random entry points, sharing only the visited
bitmap.  On completion each CTA holds a local TopK; the union's global TopK
is the answer.  The *merge* of those lists is the operation ALGAS moves to
the CPU (:func:`repro.search.topk.heap_merge` executed host-side), while
baseline CAGRA merges on the GPU — both paths produce identical ids, only
their cost differs (see :meth:`repro.gpusim.CostModel.gpu_merge_us`).

CTAs are interleaved round-robin step-by-step to model their concurrent
execution: the visited bitmap mediates work partitioning exactly as the
atomic bitmap does on hardware.
"""

from __future__ import annotations

import math

import numpy as np

from ..gpusim.trace import TraceBuilder
from ..graphs.base import GraphIndex
from .intra_cta import BeamConfig, CTASearcher, SearchResult
from .topk import heap_merge
from .visited import VisitedBitmap

__all__ = ["multi_cta_search", "per_cta_capacity", "make_entries"]


def per_cta_capacity(l_total: int, n_ctas: int, k: int) -> int:
    """Split a total candidate budget across CTAs (each ≥ the TopK)."""
    if l_total <= 0 or n_ctas <= 0 or k <= 0:
        raise ValueError("l_total, n_ctas, k must be positive")
    return max(k, math.ceil(l_total / n_ctas))


def make_entries(
    n_points: int,
    n_ctas: int,
    entries_per_cta: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Distinct random entry points for each CTA (CAGRA-style seeding)."""
    total = min(n_ctas * entries_per_cta, n_points)
    flat = rng.choice(n_points, size=total, replace=False)
    return [
        flat[i * entries_per_cta : (i + 1) * entries_per_cta]
        for i in range(n_ctas)
    ]


def multi_cta_search(
    points: np.ndarray,
    graph: GraphIndex,
    query: np.ndarray,
    k: int,
    l_total: int,
    n_ctas: int,
    metric: str = "l2",
    beam: BeamConfig | None = None,
    entries: list[np.ndarray] | None = None,
    entries_per_cta: int = 2,
    rng: np.random.Generator | None = None,
    record_trace: bool = True,
    backend: str = "scalar",
    codec=None,
    rerank_mult: int | None = None,
) -> SearchResult:
    """Search one query with ``n_ctas`` cooperating CTAs.

    Returns the merged TopK plus a :class:`~repro.gpusim.trace.QueryTrace`
    view holding one CTA trace per CTA.  The merged result equals the global TopK of
    the per-CTA lists (property-tested), so swapping the merge location
    (CPU vs GPU) cannot change recall — only latency.

    ``backend="vectorized"`` steps all CTAs in one lockstep SoA batch
    (:mod:`repro.search.batched`) with bit-identical results and traces.

    A ``codec`` (:func:`~repro.search.precision.make_codec`) runs every
    CTA on compressed distances (one shared per-query dispatch state),
    merges the per-CTA lists at ``rerank_mult × k`` width and re-scores
    the merged pool exactly — bit-identical across backends.
    """
    if n_ctas <= 0:
        raise ValueError("n_ctas must be positive")
    if backend not in ("scalar", "vectorized", "compiled"):
        raise ValueError(f"unknown backend {backend!r}")
    from .precision import DEFAULT_RERANK_MULT, append_rerank_steps, exact_rerank

    if rerank_mult is None:
        rerank_mult = DEFAULT_RERANK_MULT
    rng = rng or np.random.default_rng(0)
    if backend != "scalar":
        from .batched import batched_multi_cta_search
        from .compiled import resolve_backend

        backend = resolve_backend(backend)
        return batched_multi_cta_search(
            points, graph, np.asarray(query, dtype=np.float32)[None, :],
            k, l_total, n_ctas, metric=metric, beam=beam,
            entries=[entries] if entries is not None else None,
            entries_per_cta=entries_per_cta, rng=rng,
            record_trace=record_trace, codec=codec, rerank_mult=rerank_mult,
            compiled=backend == "compiled",
        )[0]
    l_cta = per_cta_capacity(l_total, n_ctas, k)
    if entries is None:
        entries = make_entries(points.shape[0], n_ctas, entries_per_cta, rng)
    if len(entries) != n_ctas:
        raise ValueError("need one entry array per CTA")

    visited = VisitedBitmap(points.shape[0])
    trace = TraceBuilder(n_ctas, np.array([0, n_ctas])) if record_trace else None
    codec_state = None
    if codec is not None:
        codec_state = codec.query_state(
            np.asarray(query, dtype=np.float32)[None, :]
        )
    searchers = [
        CTASearcher(
            points, graph, query, l_cta, entries[i], visited,
            metric=metric, beam=beam, trace=trace, cta=i,
            codec=codec, codec_state=codec_state,
        )
        for i in range(n_ctas)
    ]
    # Round-robin stepping models concurrent CTAs contending on the bitmap.
    active = True
    guard = 200 * l_cta * n_ctas + 1000
    while active:
        active = False
        for s in searchers:
            if s.step():
                active = True
        guard -= 1
        if guard <= 0:
            raise RuntimeError("multi-CTA search exceeded step budget")

    rcap = max(k, rerank_mult * k) if codec is not None else k
    lists = [s.results(rcap) for s in searchers]
    ids, dists = heap_merge(lists, rcap)
    if codec is not None:
        pool = ids
        ids, dists = exact_rerank(
            np.asarray(points, dtype=np.float32), searchers[0].query, metric,
            pool, k, qnorm=searchers[0]._qnorm,
        )
        if trace is not None:
            append_rerank_steps(
                trace, 0, pool.size, searchers[0].dim,
                dists[0] if dists.size else np.nan,
            )
    view = None
    if trace is not None:
        view = trace.build(query_dim=int(points.shape[1]), k=k)[0]
    return SearchResult(ids=ids, dists=dists, trace=view, extra={"per_cta": lists})
