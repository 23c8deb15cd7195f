"""Stage-3 CPU refinement: a bounded full-precision graph walk.

The pilot traversal (stage 1) lands near the query but in reduced
dimensionality; after the candidate ids cross PCIe (stage 2) the host
walks the *full* graph from those entry points with the lockstep engine —
full-precision distances, a step cap instead of run-to-convergence — and
hands the pool to the exact re-rank path.  The op counts returned per
query feed :meth:`CostModel.cpu_refine_us`, which prices the walk at host
FMA/heap/memory-stream rates rather than device rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.base import GraphIndex
from ..search.batched import LockstepEngine
from ..search.precision import exact_rerank

__all__ = ["RefineResult", "bounded_refine"]


@dataclass
class RefineResult:
    """Refined results plus the per-query work the cost model prices."""

    #: (nq, k) int64 corpus ids, -1 padded
    ids: np.ndarray
    #: (nq, k) float32 exact distances, inf padded
    dists: np.ndarray
    #: (nq,) int64 full-precision distance computations per query
    #: (walk expansions + the final re-rank scan)
    n_distances: np.ndarray
    #: walk rounds actually executed (≤ the step cap)
    n_steps: int


def bounded_refine(
    points: np.ndarray,
    graph: GraphIndex,
    queries: np.ndarray,
    entries: list[np.ndarray],
    k: int,
    ef: int = 64,
    max_steps: int | None = None,
    metric: str = "l2",
    alive_mask: np.ndarray | None = None,
) -> RefineResult:
    """Walk ``graph`` from per-query ``entries`` for at most ``max_steps``.

    ``ef`` is the candidate-pool width (the usual beam/ef knob);
    ``max_steps`` caps lockstep rounds so refinement latency is bounded
    even on adversarial entry placements (None = run to convergence,
    ``0`` = no walk at all — exact re-rank of the entries only).
    Every query's final pool is re-scored through :func:`exact_rerank`, so
    hybrid results flow through the same TopK path as quantized serving.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    nq = queries.shape[0]
    if len(entries) != nq:
        raise ValueError("need one entry array per query")
    if k <= 0 or ef < k:
        raise ValueError("need 0 < k <= ef")
    medoid_fallback = None
    row_entries = []
    for e in entries:
        e = np.asarray(e, dtype=np.int64)
        e = e[e >= 0]
        if e.size == 0:
            # A query whose pilot candidates all vanished (extreme churn)
            # still needs an entry; fall back to vertex 0's row lazily.
            if medoid_fallback is None:
                medoid_fallback = np.array([0], dtype=np.int64)
            e = medoid_fallback
        row_entries.append(e)
    eng = LockstepEngine(
        points, graph, queries,
        row_query=np.arange(nq, dtype=np.int64),
        row_entries=row_entries,
        cand_capacity=ef,
        metric=metric,
        beam=None,
        record_trace=True,
        alive_mask=alive_mask,
    )
    steps = 0
    while max_steps != 0 and eng.step_all():
        steps += 1
        if max_steps is not None and steps >= max_steps:
            break
    pool_ids, _, sizes = eng.pools()
    ids = np.full((nq, k), -1, dtype=np.int64)
    dists = np.full((nq, k), np.inf, dtype=np.float32)
    n_dist = eng.trace_table().cta_sums("n_new_points") + sizes
    for i in range(nq):
        m = int(sizes[i])
        pool = pool_ids[i, :m]
        qnorm = None if eng._qnorm is None else eng._qnorm[i]
        rid, rd = exact_rerank(points, queries[i], metric, pool, k, qnorm=qnorm)
        ids[i, : rid.size] = rid
        dists[i, : rid.size] = rd
    return RefineResult(ids=ids, dists=dists, n_distances=n_dist, n_steps=steps)
