"""Operation traces emitted by the search kernels.

The search algorithms in :mod:`repro.search` run *for real* on real vectors;
while running they record, per greedy-search step, exactly which operations a
CTA would issue (neighbour fetches, visited-bitmap probes, distance FMAs,
bitonic compare-exchanges, …).  The cost model then prices a trace without
re-running the search, which is what lets one set of traces be scheduled
under several batching disciplines for an apples-to-apples comparison.

Traces are stored column-wise: a :class:`TraceTable` holds one array per
:class:`StepRecord` field for every step of every CTA of every query, plus
CTA and query offsets, so the cost model prices a whole serve in one numpy
pass.  Search kernels append step slices (one per lockstep wave) to a
:class:`TraceBuilder`; :class:`CTATrace` and :class:`QueryTrace` are thin
read views into a table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PRECISIONS",
    "encode_precision",
    "StepRecord",
    "TraceTable",
    "TraceBuilder",
    "CTATrace",
    "QueryTrace",
]

#: distance substrates a step can be priced under; a step stores the index.
PRECISIONS = ("float32", "int8", "pq")
_PRECISION_CODE = {p: i for i, p in enumerate(PRECISIONS)}
#: the one "no distance" value rows read back as, so records compare equal
#: (tuple equality tests identity before ``==``, and NaN != NaN)
_NAN = float("nan")


def encode_precision(precision: str) -> int:
    """Column code of a precision name; unknown names are an error, never
    silently priced as float32."""
    try:
        return _PRECISION_CODE[precision]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        ) from None


@dataclass(frozen=True)
class StepRecord:
    """Op counts for one greedy-search step (Alg. 1 lines 7–19).

    One *step* = select candidate(s) → fetch neighbours → filter via bitmap
    → compute distances → (maybe) sort-and-merge the candidate list.
    With beam extend a single step may expand several candidates and skip
    the sort; ``did_sort`` is False for the skipped iterations.  A record is
    one row of a :class:`TraceTable`.
    """

    #: offset of the selected candidate within the candidate list (the beam
    #: phase trigger from §IV-C); for beam steps, offset of the first pick.
    select_offset: int
    #: how many candidates were expanded in this step (1 for pure greedy).
    n_expanded: int
    #: neighbour ids fetched from the adjacency lists (global memory reads).
    n_neighbors_fetched: int
    #: bitmap probes performed (== neighbours fetched).
    n_visited_checks: int
    #: neighbours that survived the filter → full distance computations.
    n_new_points: int
    #: vector dimensionality (per-distance FMA count is n_new · dim).
    dim: int
    #: elements participating in the bitonic sort+merge (0 if skipped).
    sort_size: int
    #: candidate-list length at this step (scanned during selection).
    cand_list_len: int
    #: whether the sort/merge maintenance ran this step.
    did_sort: bool
    #: best (smallest) distance in the candidate list after the step —
    #: recorded for the Fig. 7 convergence analysis.
    best_dist: float = _NAN
    #: distance substrate of this step's scoring kernel: ``"float32"``
    #: (per-dimension FMAs), ``"int8"`` (DP4A packed MACs over SQ8 codes)
    #: or ``"pq"`` (``dim`` = m table lookups per point).  The cost model
    #: prices the distance phase per-substrate.
    precision: str = "float32"


#: integer columns, in StepRecord field order
INT_COLUMNS = (
    "select_offset",
    "n_expanded",
    "n_neighbors_fetched",
    "n_visited_checks",
    "n_new_points",
    "dim",
    "sort_size",
    "cand_list_len",
)
_DTYPES = {
    **{c: np.int64 for c in INT_COLUMNS},
    "did_sort": np.bool_,
    "best_dist": np.float64,
    "precision": np.int8,
}
#: every column, in StepRecord field order (``precision`` holds codes)
COLUMNS = tuple(_DTYPES)


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _segment_rows(offsets: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Row indices of segments ``segs`` (in that order) of an offset array."""
    lens = offsets[segs + 1] - offsets[segs]
    starts = offsets[segs]
    shift = np.repeat(starts - _offsets(lens)[:-1], lens)
    return np.arange(int(lens.sum()), dtype=np.int64) + shift


class TraceTable:
    """Struct-of-arrays traces: every step of every CTA of every query.

    Steps are stored CTA-contiguous and in step order: CTA ``c`` owns rows
    ``cta_offsets[c]:cta_offsets[c + 1]``, query ``q`` owns CTAs
    ``query_offsets[q]:query_offsets[q + 1]``.  ``result_len[c]`` is the
    number of result slots CTA ``c`` writes back.  ``query_dim``/``k`` are
    the query vector width and TopK of the search that produced the table
    (the ``dim`` column is each step's per-point distance work width).

    The table is a sequence of per-query :class:`QueryTrace` views
    (``len(table)`` is the query count), so code written against a list
    of query traces reads it unchanged.
    """

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        cta_offsets: np.ndarray,
        result_len: np.ndarray,
        query_offsets: np.ndarray,
        query_dim: int = 0,
        k: int = 0,
    ):
        n = None
        for name, dtype in _DTYPES.items():
            col = np.asarray(columns[name], dtype=dtype)
            if col.ndim != 1 or (n is not None and col.size != n):
                raise ValueError("trace columns must be 1-D and equally long")
            n = col.size
            setattr(self, name, col)
        self.cta_offsets = np.asarray(cta_offsets, dtype=np.int64)
        self.result_len = np.asarray(result_len, dtype=np.int64)
        self.query_offsets = np.asarray(query_offsets, dtype=np.int64)
        if (
            self.cta_offsets[0] != 0
            or self.cta_offsets[-1] != n
            or self.result_len.size != self.cta_offsets.size - 1
            or self.query_offsets[0] != 0
            or self.query_offsets[-1] != self.result_len.size
        ):
            raise ValueError("inconsistent trace offsets")
        self.query_dim = int(query_dim)
        self.k = int(k)

    # ----------------------------------------------------------- shapes
    @property
    def n_rows(self) -> int:
        """Total steps over all CTAs."""
        return int(self.cta_offsets[-1])

    @property
    def n_ctas(self) -> int:
        return int(self.cta_offsets.size - 1)

    @property
    def n_queries(self) -> int:
        return int(self.query_offsets.size - 1)

    def steps_per_cta(self) -> np.ndarray:
        return np.diff(self.cta_offsets)

    def ctas_per_query(self) -> np.ndarray:
        return np.diff(self.query_offsets)

    def cta_of_row(self) -> np.ndarray:
        """CTA index of every row."""
        return np.repeat(np.arange(self.n_ctas, dtype=np.int64), self.steps_per_cta())

    def cta_sums(self, column: str) -> np.ndarray:
        """Per-CTA sum of an integer (or boolean) column."""
        c = _offsets(np.asarray(getattr(self, column), dtype=np.int64))
        return c[self.cta_offsets[1:]] - c[self.cta_offsets[:-1]]

    # ------------------------------------------------------------ views
    def __len__(self) -> int:
        return self.n_queries

    def __getitem__(self, q: int) -> QueryTrace:
        n = self.n_queries
        if not -n <= q < n:
            raise IndexError("query index out of range")
        return QueryTrace(self, q % n)

    def __iter__(self):
        return (QueryTrace(self, q) for q in range(self.n_queries))

    def cta(self, c: int) -> CTATrace:
        if not 0 <= c < self.n_ctas:
            raise IndexError("CTA index out of range")
        return CTATrace(self, c)

    def row(self, i: int) -> StepRecord:
        """Row ``i`` as a :class:`StepRecord`."""
        vals = [int(getattr(self, c)[i]) for c in INT_COLUMNS]
        best = float(self.best_dist[i])
        return StepRecord(
            *vals,
            did_sort=bool(self.did_sort[i]),
            best_dist=_NAN if best != best else best,
            precision=PRECISIONS[self.precision[i]],
        )

    # ----------------------------------------------------- construction
    @classmethod
    def from_steps(
        cls,
        ctas: Sequence[Sequence[StepRecord]],
        result_len: Sequence[int] | None = None,
        ctas_per_query: Sequence[int] | None = None,
        query_dim: int = 0,
        k: int = 0,
    ) -> TraceTable:
        """A table from per-CTA step lists (one query holding every CTA
        unless ``ctas_per_query`` groups them)."""
        rows = [s for steps in ctas for s in steps]
        columns = {
            c: np.array([getattr(s, c) for s in rows], dtype=_DTYPES[c])
            for c in COLUMNS
            if c != "precision"
        }
        columns["precision"] = np.array(
            [encode_precision(s.precision) for s in rows], dtype=np.int8
        )
        n_ctas = len(ctas)
        if ctas_per_query is None:
            ctas_per_query = [n_ctas] if n_ctas else []
        return cls(
            columns,
            _offsets(np.array([len(s) for s in ctas], dtype=np.int64)),
            np.zeros(n_ctas, np.int64) if result_len is None else result_len,
            _offsets(np.asarray(ctas_per_query, dtype=np.int64)),
            query_dim=query_dim,
            k=k,
        )

    @classmethod
    def concat(cls, tables: Sequence[TraceTable]) -> TraceTable:
        """Queries of ``tables`` one after another (query_dim/k of the
        first)."""
        if not tables:
            return cls.from_steps([])
        columns = {c: np.concatenate([getattr(t, c) for t in tables]) for c in COLUMNS}
        return cls(
            columns,
            _offsets(np.concatenate([t.steps_per_cta() for t in tables])),
            np.concatenate([t.result_len for t in tables]),
            _offsets(np.concatenate([t.ctas_per_query() for t in tables])),
            query_dim=tables[0].query_dim,
            k=tables[0].k,
        )

    def take_queries(self, queries) -> TraceTable:
        """A table holding only ``queries`` (in the given order)."""
        q = np.asarray(queries, dtype=np.int64)
        return self._take(_segment_rows(self.query_offsets, q), self.ctas_per_query()[q])

    def take_cta(self, c: int) -> TraceTable:
        """A one-query table holding only CTA ``c``."""
        return self._take(np.array([c]), np.array([1]))

    def _take(self, ctas: np.ndarray, ctas_per_query: np.ndarray) -> TraceTable:
        rows = _segment_rows(self.cta_offsets, ctas)
        return TraceTable(
            {c: getattr(self, c)[rows] for c in COLUMNS},
            _offsets(self.steps_per_cta()[ctas]),
            self.result_len[ctas],
            _offsets(ctas_per_query),
            query_dim=self.query_dim,
            k=self.k,
        )

    @classmethod
    def gather(cls, traces: Sequence[QueryTrace | CTATrace]) -> TraceTable:
        """One table whose query ``i`` is ``traces[i]`` (a CTA view counts
        as a one-CTA query).

        Views that already are queries ``0..n-1`` of one shared table (what
        the lockstep search returns) give back that table without copying.
        """
        if traces:
            t, kind, n = traces[0].table, type(traces[0]), len(traces)
            if (
                t.n_queries == n
                and (kind is QueryTrace or t.n_ctas == n)
                and all(
                    type(v) is kind and v.table is t and v.index == i
                    for i, v in enumerate(traces)
                )
            ):
                return t
        return cls.concat([
            v.table.take_queries([v.index]) if isinstance(v, QueryTrace)
            else v.table.take_cta(v.index)
            for v in traces
        ])


class TraceBuilder:
    """Collects step slices for ``n_ctas`` CTAs and freezes them into a
    CTA-contiguous :class:`TraceTable`.

    A slice gives one step to each CTA it names; slices appended later hold
    later steps, so a lockstep engine appends one slice per wave.  CTAs
    are grouped into queries by ``query_offsets`` (default: one each).
    """

    def __init__(self, n_ctas: int, query_offsets: np.ndarray | None = None):
        self.n_ctas = int(n_ctas)
        self.query_offsets = (
            np.arange(self.n_ctas + 1, dtype=np.int64)
            if query_offsets is None
            else np.asarray(query_offsets, dtype=np.int64)
        )
        #: result slots each CTA writes back (set by the search driver)
        self.result_len = np.zeros(self.n_ctas, dtype=np.int64)
        self._ctas: list[np.ndarray] = []
        self._cols: dict[str, list[np.ndarray]] = {c: [] for c in COLUMNS}

    def append(
        self,
        ctas,
        *,
        dim,
        did_sort,
        select_offset=0,
        n_expanded=0,
        n_neighbors_fetched=0,
        n_visited_checks=0,
        n_new_points=0,
        sort_size=0,
        cand_list_len=0,
        best_dist=_NAN,
        precision: str = "float32",
    ) -> None:
        """One step for each CTA in ``ctas``; every field is a per-CTA
        array or a scalar shared by the slice."""
        ctas = np.atleast_1d(np.asarray(ctas, dtype=np.int64))
        n = ctas.size
        values = {
            "select_offset": select_offset,
            "n_expanded": n_expanded,
            "n_neighbors_fetched": n_neighbors_fetched,
            "n_visited_checks": n_visited_checks,
            "n_new_points": n_new_points,
            "dim": dim,
            "sort_size": sort_size,
            "cand_list_len": cand_list_len,
            "did_sort": did_sort,
            "best_dist": best_dist,
            "precision": encode_precision(precision),
        }
        self._ctas.append(ctas)
        for c, v in values.items():
            self._cols[c].append(np.broadcast_to(np.asarray(v, dtype=_DTYPES[c]), (n,)))

    def build(self, query_dim: int = 0, k: int = 0) -> TraceTable:
        """Freeze into a table; steps of one CTA keep their append order."""
        if self._ctas:
            ctas = np.concatenate(self._ctas)
            order = np.argsort(ctas, kind="stable")
            columns = {c: np.concatenate(v)[order] for c, v in self._cols.items()}
            counts = np.bincount(ctas, minlength=self.n_ctas)
        else:
            columns = {c: np.zeros(0, dtype=t) for c, t in _DTYPES.items()}
            counts = np.zeros(self.n_ctas, dtype=np.int64)
        return TraceTable(
            columns, _offsets(counts), self.result_len.copy(),
            self.query_offsets, query_dim=query_dim, k=k,
        )


class Steps(Sequence):
    """Read view of one CTA's steps: a sequence of :class:`StepRecord`."""

    __slots__ = ("_table", "_lo", "_hi")

    def __init__(self, table: TraceTable, lo: int, hi: int):
        self._table, self._lo, self._hi = table, lo, hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, i):
        rows = range(self._lo, self._hi)[i]
        if isinstance(i, slice):
            return [self._table.row(r) for r in rows]
        return self._table.row(rows)

    def __iter__(self):
        return (self._table.row(r) for r in range(self._lo, self._hi))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Steps, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Steps({list(self)!r})"


class CTATrace:
    """Read view of one CTA's trace in a :class:`TraceTable`."""

    __slots__ = ("table", "index")

    def __init__(self, table: TraceTable, index: int):
        self.table, self.index = table, index

    def _span(self) -> tuple[int, int]:
        o = self.table.cta_offsets
        return int(o[self.index]), int(o[self.index + 1])

    @property
    def steps(self) -> Steps:
        return Steps(self.table, *self._span())

    @property
    def result_len(self) -> int:
        """Number of result slots this CTA writes back (its local TopK)."""
        return int(self.table.result_len[self.index])

    @property
    def n_steps(self) -> int:
        lo, hi = self._span()
        return hi - lo

    @property
    def n_sorts(self) -> int:
        lo, hi = self._span()
        return int(np.count_nonzero(self.table.did_sort[lo:hi]))

    @property
    def n_distances(self) -> int:
        """Total full distance computations performed."""
        lo, hi = self._span()
        return int(self.table.n_new_points[lo:hi].sum())

    @property
    def n_expanded(self) -> int:
        """Total candidates expanded (== sequential greedy iterations)."""
        lo, hi = self._span()
        return int(self.table.n_expanded[lo:hi].sum())


class QueryTrace:
    """Read view of the CTAs cooperating on one query of a :class:`TraceTable`.

    ``ctas[i]`` is the trace of the i-th CTA.  For single-CTA search the
    list has one element.  The merged result ids/distances live with the
    caller (search functions return them separately).
    """

    __slots__ = ("table", "index")

    def __init__(self, table: TraceTable, index: int):
        self.table, self.index = table, index

    @property
    def ctas(self) -> list[CTATrace]:
        o = self.table.query_offsets
        lo, hi = int(o[self.index]), int(o[self.index + 1])
        return [CTATrace(self.table, c) for c in range(lo, hi)]

    @property
    def dim(self) -> int:
        """Query vector width."""
        return self.table.query_dim

    @property
    def k(self) -> int:
        return self.table.k

    @property
    def n_ctas(self) -> int:
        o = self.table.query_offsets
        return int(o[self.index + 1] - o[self.index])

    @property
    def max_steps(self) -> int:
        return max((c.n_steps for c in self.ctas), default=0)

    @property
    def total_distances(self) -> int:
        return sum(c.n_distances for c in self.ctas)

    @property
    def total_sorts(self) -> int:
        return sum(c.n_sorts for c in self.ctas)
