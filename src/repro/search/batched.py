"""Vectorized lockstep batch search engine (SoA intra-CTA kernels).

The scalar :class:`~repro.search.intra_cta.CTASearcher` advances one query
one graph step per Python iteration — every ``neighbors()`` call, distance
matvec, and argsort is a sub-microsecond kernel drowned in numpy dispatch
overhead.  This module runs **B CTAs in lockstep** instead, the way CAGRA's
batched kernels (and any serious GPU traversal) do:

* candidate lists are structure-of-arrays ``(B, L)`` id/dist/checked
  blocks, selected and maintained with row-parallel kernels;
* the per-query visited sets are one packed ``(Q, ceil(n/8))`` ``uint8``
  bitmap with a vectorized, order-preserving test-and-set;
* neighbour expansion is a single fancy-indexed gather from the graph's
  cached padded ``(n, max_degree)`` neighbour matrix
  (:meth:`~repro.graphs.base.GraphIndex.neighbor_matrix`);
* all freshly admitted points of a step are scored with **one** batched
  distance computation (:func:`~repro.data.metrics.pair_distances`);
* list maintenance is one stable row-wise argsort over the rows that
  actually received new candidates.

The engine is a *bit-exact* replacement for the scalar path: per-row
ordering of every effectful operation (entry seeding, candidate selection,
neighbour fetch order, visited test-and-set, tie-breaking in the merge)
matches the scalar searcher, and the shared ``pair_distances`` kernel makes
every distance bit identical.  Multi-CTA queries share a visited row; the
row order within a query reproduces the scalar round-robin schedule, so
cross-CTA work partitioning — and therefore results *and* per-step
traces — are identical too.

Traces are columnar: every wave appends one slice (a step for each active
row) to a :class:`~repro.gpusim.trace.TraceBuilder`, and the search
drivers freeze it into one :class:`~repro.gpusim.trace.TraceTable` per
batch; each result's ``trace`` is a read view into that table.
"""

from __future__ import annotations

import numpy as np

from ..data.metrics import pair_distances
from ..gpusim.trace import TraceBuilder, TraceTable
from ..graphs.base import GraphIndex
from .intra_cta import BeamConfig, SearchResult
from .multi_cta import make_entries, per_cta_capacity
from .precision import DEFAULT_RERANK_MULT, append_rerank_steps, exact_rerank
from .topk import heap_merge

__all__ = [
    "BatchedVisited",
    "LockstepEngine",
    "batched_intra_cta_search",
    "batched_multi_cta_search",
]


class BatchedVisited:
    """Per-query packed visited bitmaps with ordered test-and-set.

    One ``uint8`` bit-row per query (all CTAs of a query share the row,
    like the shared visited table of §IV-B).  ``test_and_set`` resolves
    duplicates first-come-first-served over the *given sequence order*,
    which the engine arranges to be (CTA, fetch position) — exactly the
    order in which the scalar round-robin schedule issues its atomicOrs.
    """

    __slots__ = ("n", "words_per_row", "_bits", "probes", "sets")

    def __init__(self, n_rows: int, n_points: int):
        if n_points <= 0:
            raise ValueError("n_points must be positive")
        self.n = n_points
        self.words_per_row = (n_points + 7) // 8
        self._bits = np.zeros((max(n_rows, 1), self.words_per_row), dtype=np.uint8)
        self.probes = 0
        self.sets = 0

    def test_and_set(self, rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Mark ``(rows, ids)`` pairs visited; return the fresh mask."""
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        if ids.min() < 0 or ids.max() >= self.n:
            raise IndexError("vertex id out of range")
        self.probes += int(ids.size)
        byte = ids >> 3
        bit = np.uint8(1) << (ids & 7).astype(np.uint8)
        already = (self._bits[rows, byte] & bit) != 0
        fresh = ~already
        if fresh.any():
            f_idx = np.flatnonzero(fresh)
            keys = rows[f_idx].astype(np.int64) * self.n + ids[f_idx]
            # np.unique returns the index of the *first* occurrence of each
            # key: later duplicates in the sequence lose, first-come wins.
            _, first = np.unique(keys, return_index=True)
            dup = np.ones(f_idx.size, dtype=bool)
            dup[first] = False
            fresh[f_idx[dup]] = False
            s_idx = np.flatnonzero(fresh)
            flat = rows[s_idx].astype(np.int64) * self.words_per_row + byte[s_idx]
            np.bitwise_or.at(self._bits.reshape(-1), flat, bit[s_idx])
            self.sets += int(s_idx.size)
        return fresh


class LockstepEngine:
    """Advance ``R`` CTA rows (possibly across many queries) in lockstep.

    Row ``r`` models one CTA serving query ``row_query[r]``; rows of the
    same query must be contiguous and in CTA order (that order is the
    scalar round-robin schedule the visited tie-breaking reproduces).

    Besides a frozen :class:`~repro.graphs.base.GraphIndex`, ``graph`` may
    be a raw ``(nbr_mat, degrees)`` pair — a padded neighbour matrix plus
    per-vertex counts, the representation the vectorized *construction*
    backends (:mod:`repro.graphs.build_batched`) mutate between insertion
    waves.  ``n_visible`` optionally masks expansion to the vertex-id
    prefix ``[0, n_visible)``: insertion-time searches against a growing
    graph only ever traverse the already-inserted prefix, without the
    builder having to re-materialize a CSR per wave.
    """

    def __init__(
        self,
        points: np.ndarray,
        graph: GraphIndex | tuple[np.ndarray, np.ndarray],
        queries: np.ndarray,
        row_query: np.ndarray,
        row_entries: list[np.ndarray],
        cand_capacity: int,
        metric: str = "l2",
        beam: BeamConfig | None = None,
        record_trace: bool = True,
        n_visible: int | None = None,
        record_expansions: bool = False,
        codec=None,
        alive_mask: np.ndarray | None = None,
    ):
        if cand_capacity <= 0:
            raise ValueError("cand_capacity must be positive")
        self.points = np.asarray(points, dtype=np.float32)
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        self.queries = queries
        self.row_query = np.asarray(row_query, dtype=np.int64)
        if len(row_entries) != self.row_query.size:
            raise ValueError("need one entry array per row")
        self.metric = metric
        self.beam = beam
        if isinstance(graph, GraphIndex):
            self.nbr_mat, self.degrees = graph.neighbor_matrix()
        else:
            self.nbr_mat, self.degrees = graph
            if self.nbr_mat.ndim != 2 or self.degrees.ndim != 1:
                raise ValueError("adjacency pair must be (2-D matrix, 1-D degrees)")
        if n_visible is not None and n_visible <= 0:
            raise ValueError("n_visible must be positive")
        self.n_visible = n_visible
        # Tombstone mask (streaming indexes): expansion never admits a dead
        # vertex, so deleted points cannot appear in any candidate list —
        # "no tombstone in top-k" holds by construction rather than by a
        # post-hoc filter.  Entry points must themselves be alive.
        if alive_mask is not None:
            alive_mask = np.asarray(alive_mask, dtype=bool)
            if alive_mask.ndim != 1 or alive_mask.shape[0] < self.nbr_mat.shape[0]:
                raise ValueError("alive_mask must cover every vertex")
        self.alive_mask = alive_mask
        self.dim = int(self.points.shape[1])
        R = self.row_query.size
        L = cand_capacity
        self.R, self.L = R, L
        if metric == "l2":
            # Cached squared norms turn every per-step distance batch into
            # the norms expansion (one fewer full-width pass than the diff
            # form; see pair_distances).  Kept in codec mode too: the exact
            # re-rank pass reuses the query norms.
            self._pnorm = np.einsum("ij,ij->i", self.points, self.points)
            self._qnorm = np.einsum("ij,ij->i", self.queries, self.queries)
        else:
            self._pnorm = self._qnorm = None
        # Quantized traversal substrate (repro.search.precision): when set,
        # per-hop distances come from the codec's compressed kernel and the
        # per-query dispatch state (scaled queries / ADC tables) is built
        # once here.  Trace steps then record the codec's per-point work
        # width and precision tag so the cost model prices them correctly.
        self.codec = codec
        if codec is not None:
            self._cstate = codec.query_state(self.queries)
            # Fused per-dispatch kernel: codec gathers + distance math into
            # preallocated scratch, reused across every lockstep round (no
            # per-step table rebuilds or temporaries).  Bit-identical to
            # codec.distances — see repro.search.precision.
            self._ckernel = codec.make_kernel(self._cstate)
            self._trace_dim = int(codec.trace_dim)
            self._precision = codec.precision
        else:
            self._cstate = None
            self._ckernel = None
            self._trace_dim = self.dim
            self._precision = "float32"
        self.cand_ids = np.full((R, L), -1, dtype=np.int64)
        self.cand_d = np.full((R, L), np.inf, dtype=np.float32)
        self.cand_checked = np.zeros((R, L), dtype=bool)
        self.sizes = np.zeros(R, dtype=np.int64)
        self.active = np.zeros(R, dtype=bool)
        self.visited = self._make_visited(queries.shape[0], self.points.shape[0])
        # Columnar trace: rows are CTAs, grouped into queries by row_query.
        self.trace: TraceBuilder | None = None
        if record_trace:
            per_query = np.bincount(self.row_query, minlength=queries.shape[0])
            offsets = np.zeros(per_query.size + 1, dtype=np.int64)
            np.cumsum(per_query, out=offsets[1:])
            self.trace = TraceBuilder(R, offsets)
        # Optional expansion log: per step, the (row, id, dist) triples of
        # the vertices expanded that cycle.  NSG construction consumes this
        # — its per-vertex candidate pool is the *search path* (everything
        # expanded en route from the navigating node), not the final
        # candidate list.
        self.expansions: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = (
            [] if record_expansions else None
        )
        self._col = np.arange(L)
        self._seed(row_entries)

    def _make_visited(self, n_rows: int, n_points: int) -> BatchedVisited:
        """Visited-set factory; the compiled backend swaps in its own."""
        return BatchedVisited(n_rows, n_points)

    # ------------------------------------------------------------- seeding
    def _seed(self, row_entries: list[np.ndarray] | np.ndarray) -> None:
        R = self.R
        if R == 0:
            return
        if isinstance(row_entries, np.ndarray) and row_entries.ndim == 2:
            # Fixed-width entry matrix: one row-wise sort + shift-compare
            # replays the per-row np.unique walk (sorted, duplicates
            # dropped) without 2R small-array calls.
            if row_entries.shape[1] == 0:
                raise ValueError("need at least one entry point")
            mat = np.sort(row_entries.astype(np.int64, copy=False), axis=1)
            keep = np.ones(mat.shape, dtype=bool)
            keep[:, 1:] = mat[:, 1:] != mat[:, :-1]
            counts = keep.sum(axis=1)
            rr, cc = np.nonzero(keep)
            rows = rr.astype(np.int64)
            ids = mat[rr, cc]
        else:
            ents = [np.unique(np.asarray(e, dtype=np.int64)) for e in row_entries]
            for e in ents:
                if e.size == 0:
                    raise ValueError("need at least one entry point")
            counts = np.array([e.size for e in ents], dtype=np.int64)
            rows = np.repeat(np.arange(R, dtype=np.int64), counts)
            ids = np.concatenate(ents)
        fresh = self.visited.test_and_set(self.row_query[rows], ids)
        new_counts = self._score_and_merge(rows[fresh], ids[fresh])
        self.active[:] = self.sizes > 0
        if self.trace is not None:
            self.trace.append(
                np.arange(R),
                n_visited_checks=counts,
                n_new_points=new_counts,
                dim=self._trace_dim,
                sort_size=new_counts,
                did_sort=new_counts > 1,
                best_dist=np.where(self.sizes > 0, self.cand_d[:, 0], np.nan),
                precision=self._precision,
            )

    # ------------------------------------------------------------- merging
    def _score_and_merge(self, rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Score fresh (row, id) pairs with one batched distance kernel and
        fold them into their rows' candidate lists; returns per-row counts
        of the fresh pairs scored (the trace's ``n_new_points``).

        ``rows`` must be sorted ascending with per-row insertion order
        preserved — that order is the stable-merge tie order.
        """
        counts = np.bincount(rows, minlength=self.R).astype(np.int64)
        if ids.size == 0:
            return counts
        qrows = self.row_query[rows]
        if self.codec is not None:
            # Scratch-view return: consumed (filtered / scattered into the
            # padded merge block) before the kernel runs again.
            dists = self._ckernel(qrows, ids)
        else:
            dists = pair_distances(
                self.queries[qrows], self.points[ids], self.metric,
                a_norms=None if self._qnorm is None else self._qnorm[qrows],
                b_norms=None if self._pnorm is None else self._pnorm[ids],
            )
        # Bound filter: a pair at or beyond its row's current worst slot can
        # never survive the stable merge truncation (old entries win ties),
        # so dropping it up front is bit-identical while shrinking the merge
        # width — pools not yet full have an inf sentinel there, which keeps
        # every pair.  The modelled GPU step still scores and sorts every
        # fresh pair, so the pre-filter counts are what the trace records.
        keep = dists < self.cand_d[rows, self.L - 1]
        if keep.all():
            self._merge_pairs(rows, ids, dists, counts)
        elif keep.any():
            rows = rows[keep]
            self._merge_pairs(
                rows, ids[keep], dists[keep],
                np.bincount(rows, minlength=self.R).astype(np.int64),
            )
        return counts

    def _merge_pairs(
        self,
        rows: np.ndarray,
        ids: np.ndarray,
        dists: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Fold scored (row, id, dist) pairs into their candidate lists.

        Overridden by the compiled backend with an njit row-merge; this
        vectorized form is the reference (both produce the sorted,
        truncated lists with old-before-new / fetch-order tie resolution).
        """
        mrows = np.flatnonzero(counts)
        maxc = int(counts[mrows].max())
        # Scatter the ragged per-row pairs into an inf-padded (Bm, maxc)
        # block, preserving insertion order within each row.
        offsets = np.zeros(self.R, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        pos_in_row = np.arange(rows.size, dtype=np.int64) - offsets[rows]
        rc = np.searchsorted(mrows, rows)
        pad_d = np.full((mrows.size, maxc), np.inf, dtype=np.float32)
        pad_ids = np.full((mrows.size, maxc), -1, dtype=np.int64)
        pad_d[rc, pos_in_row] = dists
        pad_ids[rc, pos_in_row] = ids
        # One stable row-wise sort: old entries are already sorted and come
        # first, so ties resolve old-before-new and new-in-fetch-order —
        # identical to the scalar merge.
        concat_d = np.concatenate([self.cand_d[mrows], pad_d], axis=1)
        concat_ids = np.concatenate([self.cand_ids[mrows], pad_ids], axis=1)
        concat_c = np.concatenate(
            [self.cand_checked[mrows], np.zeros((mrows.size, maxc), dtype=bool)],
            axis=1,
        )
        order = np.argsort(concat_d, axis=1, kind="stable")[:, : self.L]
        self.cand_d[mrows] = np.take_along_axis(concat_d, order, axis=1)
        self.cand_ids[mrows] = np.take_along_axis(concat_ids, order, axis=1)
        self.cand_checked[mrows] = np.take_along_axis(concat_c, order, axis=1)
        self.sizes[mrows] = np.minimum(self.sizes[mrows] + counts[mrows], self.L)

    # ------------------------------------------------------------ stepping
    def step_all(self) -> bool:
        """One maintenance cycle for every active row; False when all done."""
        act = np.flatnonzero(self.active)
        if act.size == 0:
            return False
        live = self._col[None, :] < self.sizes[act, None]
        unchecked = live & ~self.cand_checked[act]
        has = unchecked.any(axis=1)
        self.active[act[~has]] = False  # exhausted rows finish, no record
        act = act[has]
        if act.size == 0:
            return False
        unchecked = unchecked[has]
        off = np.argmax(unchecked, axis=1)
        if self.beam is not None:
            width = np.where(
                off >= self.beam.offset_beam, self.beam.beam_width, 1
            ).astype(np.int64)
        else:
            width = np.ones(act.size, dtype=np.int64)
        csum = np.cumsum(unchecked, axis=1)
        sel = unchecked & (csum <= width[:, None])
        n_exp = sel.sum(axis=1)
        sel_local, sel_cols = np.nonzero(sel)  # row-major: per-row offset order
        pick_rows = act[sel_local]
        pick_ids = self.cand_ids[pick_rows, sel_cols]
        selected_dist = self.cand_d[act, off]
        self.cand_checked[pick_rows, sel_cols] = True
        if self.expansions is not None:
            # pick_rows/pick_ids are fresh gathers and cand_d is gathered
            # below before any merge mutates it, so the log stays valid.
            self.expansions.append(
                (pick_rows, pick_ids, self.cand_d[pick_rows, sel_cols])
            )

        # Neighbour expansion: one gather, flattened row-major so the global
        # pair order is (row asc, pick order, storage order) — the scalar
        # concatenation order.
        deg = self.degrees[pick_ids]
        nb = self.nbr_mat[pick_ids]
        valid = np.arange(nb.shape[1])[None, :] < deg[:, None]
        if self.n_visible is not None:
            # Construction-time prefix mask: edges into not-yet-inserted
            # vertices are invisible to this wave's searches.
            valid &= nb < self.n_visible
            deg = valid.sum(axis=1)
        if self.alive_mask is not None:
            # Tombstone mask: edges into deleted vertices are traversable
            # metadata in the adjacency but never expanded.  Clip the
            # gather — padding slots hold -1 and are already invalid.
            valid &= self.alive_mask[np.clip(nb, 0, None)]
            deg = valid.sum(axis=1)
        nbr_flat = nb[valid].astype(np.int64)
        pair_rows = np.repeat(pick_rows, deg)
        nfetch = np.bincount(pick_rows, weights=deg, minlength=self.R).astype(np.int64)

        fresh = self.visited.test_and_set(self.row_query[pair_rows], nbr_flat)
        sizes_before = self.sizes[act]
        new_counts = self._score_and_merge(pair_rows[fresh], nbr_flat[fresh])

        if self.trace is not None:
            n_new = new_counts[act]
            self.trace.append(
                act,
                select_offset=off,
                n_expanded=n_exp,
                n_neighbors_fetched=nfetch[act],
                n_visited_checks=nfetch[act],
                n_new_points=n_new,
                dim=self._trace_dim,
                sort_size=np.where(n_new > 0, sizes_before + n_new, 0),
                cand_list_len=sizes_before,
                did_sort=n_new > 0,
                best_dist=selected_dist,
                precision=self._precision,
            )
        return True

    def run(self, max_rounds: int, what: str = "search") -> None:
        """Drive all rows to completion (same budgets as the scalar path)."""
        rounds = 0
        while self.step_all():
            rounds += 1
            if rounds >= max_rounds:
                raise RuntimeError(
                    f"{what} exceeded step budget — disconnected graph?"
                )

    # ------------------------------------------------------------- results
    def pools(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw candidate pools: ``(ids, dists, sizes)`` SoA views.

        ``ids``/``dists`` are ``(R, L)`` (-1 / inf padded past each row's
        size), sorted ascending by distance.  The construction backends
        read whole pools instead of per-row top-k results.
        """
        return self.cand_ids, self.cand_d, self.sizes

    def expansion_pools(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded per-row expansion logs: ``(ids, dists)``, ``(R, W)``.

        ``W`` is the largest per-row expansion count; rows are in
        expansion order, -1 / inf padded past each row's count.  Requires
        ``record_expansions=True``.  This is the lockstep equivalent of
        the scalar search's "every expanded vertex" path — each row only
        ever expands a vertex once (the checked flag), so the log is
        duplicate-free per row.
        """
        if self.expansions is None:
            raise RuntimeError("engine built without record_expansions")
        if not self.expansions:
            return (
                np.full((self.R, 0), -1, dtype=np.int64),
                np.full((self.R, 0), np.inf, dtype=np.float32),
            )
        rows = np.concatenate([e[0] for e in self.expansions])
        ids = np.concatenate([e[1] for e in self.expansions])
        dists = np.concatenate([e[2] for e in self.expansions])
        # Stable sort by row keeps within-row expansion order.
        order = np.argsort(rows, kind="stable")
        rows, ids, dists = rows[order], ids[order], dists[order]
        counts = np.bincount(rows, minlength=self.R).astype(np.int64)
        W = int(counts.max())
        offsets = np.zeros(self.R, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        pos = np.arange(rows.size, dtype=np.int64) - offsets[rows]
        out_ids = np.full((self.R, W), -1, dtype=np.int64)
        out_d = np.full((self.R, W), np.inf, dtype=np.float32)
        out_ids[rows, pos] = ids
        out_d[rows, pos] = dists
        return out_ids, out_d

    def results_row(self, r: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        m = int(min(k, self.sizes[r]))
        ids = self.cand_ids[r, :m].copy()
        dists = self.cand_d[r, :m].copy()
        if self.trace is not None:
            self.trace.result_len[r] = m
        return ids, dists

    def trace_table(self, k: int = 0) -> TraceTable | None:
        """Freeze the recorded trace (None when built without traces)."""
        if self.trace is None:
            return None
        return self.trace.build(query_dim=self.dim, k=k)


def _engine_cls(compiled: bool) -> type[LockstepEngine]:
    """Engine class for the flag (late import avoids a module cycle)."""
    if not compiled:
        return LockstepEngine
    from .compiled import CompiledLockstepEngine

    return CompiledLockstepEngine


def batched_intra_cta_search(
    points: np.ndarray,
    graph: GraphIndex,
    queries: np.ndarray,
    k: int,
    cand_capacity: int,
    entries: list[np.ndarray],
    metric: str = "l2",
    beam: BeamConfig | None = None,
    record_trace: bool = True,
    codec=None,
    rerank_mult: int = DEFAULT_RERANK_MULT,
    compiled: bool = False,
) -> list[SearchResult]:
    """Single-CTA search of ``B`` queries in lockstep.

    ``entries[i]`` seeds query ``i``.  Per-query results and traces are
    bit-identical to ``intra_cta_search`` run query-by-query.

    With a ``codec`` the traversal runs on compressed distances and the
    top ``rerank_mult × k`` survivors of each row are re-scored exactly
    (:func:`~repro.search.precision.exact_rerank`); the re-rank pass is
    appended to the trace as a float32 step so the cost model prices it.

    ``compiled=True`` swaps in the njit inner-round kernels
    (:class:`~repro.search.compiled.CompiledLockstepEngine`) —
    bit-identical output, numba required.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    B = queries.shape[0]
    row_entries = [np.atleast_1d(np.asarray(e, dtype=np.int64)) for e in entries]
    eng = _engine_cls(compiled)(
        points, graph, queries, np.arange(B), row_entries, cand_capacity,
        metric=metric, beam=beam, record_trace=record_trace, codec=codec,
    )
    eng.run(100 * cand_capacity)
    found = []
    scored, best = [], []
    for r in range(B):
        if codec is None:
            found.append(eng.results_row(r, k))
            continue
        rcap = max(k, rerank_mult * k)
        approx_ids, _ = eng.results_row(r, rcap)
        qnorm = None if eng._qnorm is None else eng._qnorm[r]
        ids, dists = exact_rerank(
            eng.points, queries[r], metric, approx_ids, k, qnorm=qnorm
        )
        scored.append(approx_ids.size)
        best.append(dists[0] if dists.size else np.nan)
        if eng.trace is not None:
            eng.trace.result_len[r] = ids.size
        found.append((ids, dists))
    if codec is not None and eng.trace is not None:
        append_rerank_steps(eng.trace, np.arange(B), scored, eng.dim, best)
    table = eng.trace_table(k)
    return [
        SearchResult(ids=ids, dists=dists,
                     trace=None if table is None else table.cta(r))
        for r, (ids, dists) in enumerate(found)
    ]


def batched_multi_cta_search(
    points: np.ndarray,
    graph: GraphIndex,
    queries: np.ndarray,
    k: int,
    l_total: int,
    n_ctas: int,
    metric: str = "l2",
    beam: BeamConfig | None = None,
    entries: list[list[np.ndarray]] | None = None,
    entries_per_cta: int = 2,
    rng: np.random.Generator | None = None,
    record_trace: bool = True,
    codec=None,
    rerank_mult: int = DEFAULT_RERANK_MULT,
    compiled: bool = False,
) -> list[SearchResult]:
    """Multi-CTA search of ``B`` queries, all CTA rows in one lockstep batch.

    ``entries[q][c]`` seeds CTA ``c`` of query ``q``; when omitted they are
    drawn per query in order from ``rng`` — the same stream of
    :func:`make_entries` calls the scalar driver issues.

    With a ``codec`` the per-CTA lists are merged at ``rerank_mult × k``
    width and the merged pool is re-scored exactly; the re-rank step is
    recorded on CTA 0's trace (host hands the pool back to one CTA).
    """
    if n_ctas <= 0:
        raise ValueError("n_ctas must be positive")
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    B = queries.shape[0]
    rng = rng or np.random.default_rng(0)
    l_cta = per_cta_capacity(l_total, n_ctas, k)
    row_entries: list[np.ndarray] = []
    row_query = np.repeat(np.arange(B, dtype=np.int64), n_ctas)
    for q in range(B):
        e = entries[q] if entries is not None else make_entries(
            points.shape[0], n_ctas, entries_per_cta, rng
        )
        if len(e) != n_ctas:
            raise ValueError("need one entry array per CTA")
        row_entries.extend(np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in e)
    eng = _engine_cls(compiled)(
        points, graph, queries, row_query, row_entries, l_cta,
        metric=metric, beam=beam, record_trace=record_trace, codec=codec,
    )
    eng.run(200 * l_cta * n_ctas + 1000, what="multi-CTA search")
    rcap = max(k, rerank_mult * k) if codec is not None else k
    found = []
    scored, best = [], []
    for q in range(B):
        rows = range(q * n_ctas, (q + 1) * n_ctas)
        lists = [eng.results_row(r, rcap) for r in rows]
        ids, dists = heap_merge(lists, rcap)
        if codec is not None:
            pool = ids
            qnorm = None if eng._qnorm is None else eng._qnorm[q]
            ids, dists = exact_rerank(
                eng.points, queries[q], metric, pool, k, qnorm=qnorm
            )
            scored.append(pool.size)
            best.append(dists[0] if dists.size else np.nan)
        found.append((ids, dists, lists))
    if codec is not None and eng.trace is not None:
        append_rerank_steps(eng.trace, np.arange(B) * n_ctas, scored, eng.dim, best)
    table = eng.trace_table(k)
    return [
        SearchResult(ids=ids, dists=dists,
                     trace=None if table is None else table[q],
                     extra={"per_cta": lists})
        for q, (ids, dists, lists) in enumerate(found)
    ]
