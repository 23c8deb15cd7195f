"""Quantized-distance traversal substrates for the graph-search hot path.

Per-hop distance evaluation is the dominant cost of graph traversal at
high dimension: every expansion step is a full ``dim``-wide float32 kernel.
CAGRA-Q and FAISS cut that cost by walking the graph on a *compressed*
representation of the base vectors and restoring exactness with a final
float32 re-rank of the surviving candidates.  This module provides the
compressed substrates as pluggable codecs shared by both search backends:

* :class:`Int8Codec` — ScalarQuantizer (SQ8) codes.  Distances use the
  ``|q - x̂|² = (|q|² - 2 q·lo) - 2 (q∘s)·c + |x̂|²`` expansion, so the
  per-hop kernel reads 1 byte/dimension and the per-query terms
  (``q∘s``, ``|q|² - 2 q·lo``) are built once at dispatch.  On hardware
  this is a DP4A dot product (4 int8 MACs per lane-cycle, 4× less
  memory traffic); the cost model prices it that way.
* :class:`PQCodec` — ProductQuantizer ADC.  Per-query lookup tables are
  built once at dispatch; each hop costs ``m`` table lookups per point
  instead of ``dim`` FMAs (the IVF-PQ scan, moved into the traversal).

Both codecs return float32 *approximate* distances with the same calling
convention as :func:`repro.data.metrics.pair_distances`, and both are
bit-deterministic across backends: the scalar oracle and the lockstep
engine issue the identical per-row einsum / table-gather arithmetic, so
scalar-vs-vectorized parity holds for every precision (the same argument
as the float32 norms expansion — see ``pair_distances``).

:func:`exact_rerank` is the shared exactness-restoring pass: the top
``rerank_mult × k`` survivors of the approximate candidate list are
re-scored with the full float32 kernel and the TopK is taken over exact
distances.  Recall therefore degrades only when a true neighbour fell off
the *candidate list* during the compressed walk, not merely because its
approximate distance was slightly wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.metrics import pair_distances
from ..gpusim.trace import PRECISIONS, TraceBuilder
from .quantization import ProductQuantizer, ScalarQuantizer

__all__ = [
    "PRECISIONS",
    "DEFAULT_RERANK_MULT",
    "CodecInfo",
    "Int8Codec",
    "PQCodec",
    "Int8Kernel",
    "PQKernel",
    "make_codec",
    "default_pq_m",
    "exact_rerank",
    "append_rerank_steps",
]

#: Supported traversal precisions (``PRECISIONS``, shared with the trace
#: columns): ``"float32"`` is the exact baseline (no codec); the others walk
#: the graph on compressed distances.

#: Default exact re-rank pool multiplier: re-score ``rerank_mult × k``.
DEFAULT_RERANK_MULT = 2


@dataclass(frozen=True)
class CodecInfo:
    """JSON-able codec provenance (lands in ``ServeReport.meta["precision"]``)."""

    precision: str
    dim: int
    bytes_per_vector: int
    m: int | None = None
    ks: int | None = None
    train_seed: int | None = None
    train_n: int | None = None


def default_pq_m(dim: int) -> int:
    """Default PQ subspace count: ~8 dims per sub-code (CAGRA-Q's ratio)."""
    for dsub in (8, 4, 2, 1):
        if dim % dsub == 0:
            return dim // dsub
    return dim


class Int8Codec:
    """SQ8 traversal substrate: per-dimension affine uint8 codes.

    ``distances`` mirrors the float32 norms expansion so the scalar and
    lockstep backends produce bit-identical approximate distances: the
    per-pair kernel is one row-wise einsum over the decoded-scale query
    rows and the uint8 code rows (converted in-register on hardware).
    """

    precision = "int8"

    def __init__(self, metric: str = "l2"):
        if metric not in ("l2", "cosine"):
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.codes: np.ndarray | None = None
        self.scale: np.ndarray | None = None
        self.lo: np.ndarray | None = None
        self._pnorm_hat: np.ndarray | None = None
        self.dim = 0

    def fit(self, points: np.ndarray) -> "Int8Codec":
        points = np.asarray(points, dtype=np.float32)
        sq = ScalarQuantizer().fit(points)
        self.codes = sq.encode(points)
        self.scale = sq.scale.astype(np.float32)
        self.lo = sq.lo.astype(np.float32)
        self.dim = int(points.shape[1])
        if self.metric == "l2":
            # Squared norms of the *reconstructions* — the |x̂|² term of the
            # expansion, computed once over the corpus.
            rec = sq.decode(self.codes)
            self._pnorm_hat = np.einsum("ij,ij->i", rec, rec)
        return self

    @property
    def trace_dim(self) -> int:
        """Per-point distance work recorded in traces (full width for SQ8)."""
        return self.dim

    def info(self) -> CodecInfo:
        return CodecInfo(
            precision=self.precision, dim=self.dim, bytes_per_vector=self.dim
        )

    def query_state(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-query dispatch state: scaled query rows + affine constants.

        Every term is computed row-wise (einsum / elementwise), so row
        ``i`` of a batch state is bit-identical to the single-query state
        of query ``i`` — the backends' parity relies on this.
        """
        q = np.ascontiguousarray(queries, dtype=np.float32)
        if q.ndim == 1:
            q = q[None, :]
        qs = np.ascontiguousarray(q * self.scale[None, :])
        qlo = np.einsum("ij,j->i", q, self.lo)
        if self.metric == "l2":
            qoff = np.einsum("ij,ij->i", q, q) - 2.0 * qlo
        else:
            qoff = 1.0 - qlo
        return qs, qoff.astype(np.float32)

    def distances(
        self, state: tuple[np.ndarray, np.ndarray], qrows: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Approximate distances for matched (query-row, point-id) pairs.

        Reference (allocating) form of the per-hop kernel; the hot paths
        dispatch a reusable :class:`Int8Kernel` via :meth:`make_kernel`
        instead — bit-identical output, zero per-round allocation.
        """
        qs, qoff = state
        c = self.codes[ids].astype(np.float32)
        dot = np.einsum("ij,ij->i", np.ascontiguousarray(qs[qrows]), c)
        if self.metric == "l2":
            d = qoff[qrows] + self._pnorm_hat[ids] - 2.0 * dot
            return np.maximum(d, 0.0).astype(np.float32)
        return (qoff[qrows] - dot).astype(np.float32)

    def make_kernel(self, state: tuple[np.ndarray, np.ndarray]) -> "Int8Kernel":
        """Fused per-dispatch kernel with preallocated scratch (see below)."""
        return Int8Kernel(self, state)

    def _encode(self, points: np.ndarray) -> np.ndarray:
        codes = np.rint((points - self.lo) / self.scale)
        return np.clip(codes, 0, 255).astype(np.uint8)

    def extend(self, points: np.ndarray) -> "Int8Codec":
        """Append codes for freshly inserted points (codebook unchanged).

        Streaming indexes grow between re-trains; the affine ranges stay
        frozen, so points outside the trained envelope clip — that loss is
        what :meth:`reconstruction_error` watches for.
        """
        points = np.asarray(points, dtype=np.float32)
        codes = self._encode(points)
        self.codes = np.concatenate([self.codes, codes], axis=0)
        if self.metric == "l2":
            rec = codes.astype(np.float32) * self.scale + self.lo
            self._pnorm_hat = np.concatenate(
                [self._pnorm_hat, np.einsum("ij,ij->i", rec, rec)]
            )
        return self

    def reconstruction_error(self, points: np.ndarray) -> float:
        """Mean squared reconstruction error of ``points`` under the
        *current* codebook — the stale-codebook drift probe."""
        points = np.asarray(points, dtype=np.float32)
        rec = self._encode(points).astype(np.float32) * self.scale + self.lo
        return float(((points - rec) ** 2).sum(axis=1).mean())


class PQCodec:
    """PQ-ADC traversal substrate: ``m`` sub-codebook lookups per hop.

    Per-query tables are built once at dispatch (``query_state``); the
    per-hop kernel gathers one table entry per subspace per point — the
    op the cost model prices as shared-memory lookups instead of FMAs.
    """

    precision = "pq"

    def __init__(
        self,
        metric: str = "l2",
        m: int | None = None,
        ks: int = 256,
        n_iters: int = 8,
        train_sample: int = 4096,
        seed: int = 0,
    ):
        if metric not in ("l2", "cosine"):
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self._m_requested = m
        self._ks_requested = ks
        self.n_iters = n_iters
        self.train_sample = train_sample
        self.seed = seed
        self.pq: ProductQuantizer | None = None
        self.codes: np.ndarray | None = None
        self.dim = 0
        self.train_n = 0
        self._base: np.ndarray | None = None

    def fit(self, points: np.ndarray) -> "PQCodec":
        points = np.asarray(points, dtype=np.float32)
        n, dim = points.shape
        m = self._m_requested or default_pq_m(dim)
        if dim % m != 0:
            raise ValueError(f"dim {dim} not divisible by pq m={m}")
        train = points
        if n > self.train_sample:
            rng = np.random.default_rng(self.seed)
            train = points[rng.choice(n, size=self.train_sample, replace=False)]
        self.pq = ProductQuantizer(
            m=m, ks=self._ks_requested, n_iters=self.n_iters, seed=self.seed
        ).fit(train)
        self.codes = self.pq.encode(points)
        self.dim = dim
        self.train_n = int(train.shape[0])
        self._base = np.arange(m, dtype=np.int64) * self.pq.ks
        return self

    @property
    def m(self) -> int:
        return self.pq.m

    @property
    def ks(self) -> int:
        return self.pq.ks

    @property
    def trace_dim(self) -> int:
        """ADC costs ``m`` lookups per point — traces record dim = m."""
        return self.pq.m

    def info(self) -> CodecInfo:
        return CodecInfo(
            precision=self.precision,
            dim=self.dim,
            bytes_per_vector=self.pq.m,
            m=self.pq.m,
            ks=self.pq.ks,
            train_seed=self.seed,
            train_n=self.train_n,
        )

    def query_state(self, queries: np.ndarray) -> np.ndarray:
        """Flattened per-query ADC tables, ``(B, m·ks)`` float32.

        L2 tables hold squared sub-distances (``d = Σ lookups``); cosine
        tables hold negated sub-dot-products (``d = 1 + Σ lookups``).
        Built subspace-by-subspace with row-wise einsum, so a batch row is
        bit-identical to the corresponding single-query table.
        """
        q = np.ascontiguousarray(queries, dtype=np.float32)
        if q.ndim == 1:
            q = q[None, :]
        pq = self.pq
        dsub = self.dim // pq.m
        tables = np.empty((q.shape[0], pq.m, pq.ks), dtype=np.float32)
        for j in range(pq.m):
            qs = q[:, j * dsub : (j + 1) * dsub]
            cb = pq.codebooks[j]
            if self.metric == "l2":
                diff = qs[:, None, :] - cb[None, :, :]
                tables[:, j, :] = np.einsum("bkd,bkd->bk", diff, diff)
            else:
                tables[:, j, :] = -np.einsum("bd,kd->bk", qs, cb)
        return np.ascontiguousarray(tables.reshape(q.shape[0], -1))

    def distances(
        self, state: np.ndarray, qrows: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """ADC distances: one flat gather of ``m`` table entries per pair.

        Reference (allocating) form; the hot paths dispatch a reusable
        :class:`PQKernel` via :meth:`make_kernel` — bit-identical output,
        zero per-round allocation.
        """
        c = self.codes[ids].astype(np.int64)
        width = state.shape[1]
        idx = qrows[:, None] * width + self._base[None, :] + c
        vals = np.take(state.reshape(-1), idx)
        d = vals.sum(axis=1)
        if self.metric == "cosine":
            d = 1.0 + d
        return d.astype(np.float32)

    def make_kernel(self, state: np.ndarray) -> "PQKernel":
        """Fused per-dispatch kernel with preallocated scratch (see below)."""
        return PQKernel(self, state)

    def extend(self, points: np.ndarray) -> "PQCodec":
        """Append codes for freshly inserted points (codebooks unchanged)."""
        points = np.asarray(points, dtype=np.float32)
        self.codes = np.concatenate([self.codes, self.pq.encode(points)], axis=0)
        return self

    def reconstruction_error(self, points: np.ndarray) -> float:
        """Mean squared reconstruction error of ``points`` under the
        *current* codebooks — the stale-codebook drift probe."""
        points = np.asarray(points, dtype=np.float32)
        rec = self.pq.decode(self.pq.encode(points))
        return float(((points - rec) ** 2).sum(axis=1).mean())


class Int8Kernel:
    """Reusable SQ8 distance kernel: one dispatch, many lockstep rounds.

    The allocating form (:meth:`Int8Codec.distances`) spends a measurable
    slice of every round materialising the same temporaries — the gathered
    code rows, their float32 casts, the gathered query rows, the dot
    products.  This kernel owns those buffers, grown geometrically on
    demand and reused across every round of a dispatch, so the per-hop
    cost collapses to the gathers and the one einsum.

    Bit parity with the reference is by construction: ``np.take(...,
    out=)`` gathers the same values into contiguous rows, the uint8 →
    float32 conversion is exact whether materialised (reference) or
    buffered inside the mixed-dtype einsum (here), and the elementwise
    chain runs the same ops on the same operand layouts.  The returned
    array is a view into scratch, valid until the next call — callers
    consume it (merge / filter / copy) before re-invoking, which every
    search loop does.
    """

    __slots__ = ("codes", "pnorm_hat", "qs", "qoff", "l2", "_cap",
                 "_c8", "_qg", "_dot", "_pn", "_acc")

    def __init__(self, codec: "Int8Codec", state: tuple[np.ndarray, np.ndarray]):
        self.codes = codec.codes
        self.pnorm_hat = codec._pnorm_hat
        self.qs, self.qoff = state
        self.l2 = codec.metric == "l2"
        self._cap = 0

    def _grow(self, n: int) -> None:
        cap = max(n, 2 * self._cap, 512)
        dim = self.codes.shape[1]
        self._c8 = np.empty((cap, dim), dtype=self.codes.dtype)
        self._qg = np.empty((cap, dim), dtype=np.float32)
        self._dot = np.empty(cap, dtype=np.float32)
        self._pn = np.empty(cap, dtype=np.float32)
        self._acc = np.empty(cap, dtype=np.float32)
        self._cap = cap

    def __call__(self, qrows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        n = ids.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.float32)
        if n > self._cap:
            self._grow(n)
        c8 = self._c8[:n]
        qg = self._qg[:n]
        dot = self._dot[:n]
        acc = self._acc[:n]
        # mode="clip" keeps np.take on its unbuffered fast path (the
        # default "raise" mode bounce-buffers when out= is given); ids and
        # qrows are graph node ids / row indices, always in range, so the
        # gathered values are identical.
        np.take(self.codes, ids, axis=0, out=c8, mode="clip")
        np.take(self.qs, qrows, axis=0, out=qg, mode="clip")
        # Mixed-dtype einsum: the nditer casts uint8 rows to float32 in
        # cache-resident buffer chunks, bit-identical to a materialised
        # cast (exact conversion, same per-row accumulation) while never
        # writing the 4x-wider float rows back through memory — this is
        # where SQ8's bandwidth advantage finally shows up on the host.
        np.einsum("ij,ij->i", qg, c8, out=dot)
        np.take(self.qoff, qrows, out=acc, mode="clip")
        if self.l2:
            # acc = (qoff + pnorm_hat) - 2·dot, the reference's left-to-
            # right evaluation order, then the same clamp.
            pn = self._pn[:n]
            np.take(self.pnorm_hat, ids, out=pn, mode="clip")
            np.add(acc, pn, out=acc)
            np.multiply(dot, np.float32(2.0), out=dot)
            np.subtract(acc, dot, out=acc)
            np.maximum(acc, np.float32(0.0), out=acc)
            return acc
        np.subtract(acc, dot, out=acc)
        return acc


class PQKernel:
    """Reusable PQ-ADC distance kernel (same contract as :class:`Int8Kernel`).

    Owns the per-dispatch flattened table view plus ``(cap, m)`` code /
    index / value scratch; a round is one ``np.take`` code gather, an
    int64 index build, one flat table gather, and a row-wise sum — all
    into preallocated buffers.  Output is bit-identical to
    :meth:`PQCodec.distances` (integer index math is order-exact; the
    float32 row sum runs over the same contiguous ``(n, m)`` layout).
    """

    __slots__ = ("codes", "base", "flat", "width", "cosine", "_cap",
                 "_itype", "_c8", "_idx", "_q64", "_vals", "_acc")

    def __init__(self, codec: "PQCodec", state: np.ndarray):
        self.codes = codec.codes
        self.flat = state.reshape(-1)
        self.width = state.shape[1]
        self.cosine = codec.metric == "cosine"
        # Index dtype is half the remaining per-candidate traffic: the
        # two in-place passes over the (n, m) index buffer move 8·m
        # bytes each in int64 — at m = dim/8 that is as many bytes as
        # the original float32 vector, cancelling the code compression.
        # Every flat index is < state.size, so when the table fits int32
        # (any realistic dispatch; 2^31 entries is ~70k queries at
        # m=120, ks=256) the narrow type gathers identical values.
        self._itype = np.int32 if state.size < 2**31 else np.int64
        self.base = codec._base.astype(self._itype)
        self._cap = 0

    def _grow(self, n: int) -> None:
        cap = max(n, 2 * self._cap, 512)
        m = self.codes.shape[1]
        self._c8 = np.empty((cap, m), dtype=self.codes.dtype)
        self._idx = np.empty((cap, m), dtype=self._itype)
        self._q64 = np.empty(cap, dtype=self._itype)
        self._vals = np.empty((cap, m), dtype=np.float32)
        self._acc = np.empty(cap, dtype=np.float32)
        self._cap = cap

    def __call__(self, qrows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        n = ids.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.float32)
        if n > self._cap:
            self._grow(n)
        c8 = self._c8[:n]
        idx = self._idx[:n]
        q64 = self._q64[:n]
        vals = self._vals[:n]
        acc = self._acc[:n]
        # mode="clip" for the unbuffered out= fast path; ids are graph
        # node ids and idx is built from in-range codes/subspace offsets,
        # so no index ever actually clips.
        np.take(self.codes, ids, axis=0, out=c8, mode="clip")
        np.copyto(idx, c8, casting="unsafe")  # uint8 → int: exact
        idx += self.base[None, :]
        np.multiply(qrows, self.width, out=q64, casting="unsafe")
        idx += q64[:, None]
        np.take(self.flat, idx, out=vals, mode="clip")
        np.sum(vals, axis=1, out=acc)
        if self.cosine:
            np.add(acc, np.float32(1.0), out=acc)
        return acc


def make_codec(
    precision: str,
    points: np.ndarray,
    metric: str = "l2",
    *,
    pq_m: int | None = None,
    pq_ks: int = 256,
    seed: int = 0,
):
    """Fit the traversal codec for ``precision`` (None for ``"float32"``)."""
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )
    if precision == "float32":
        return None
    if precision == "int8":
        return Int8Codec(metric=metric).fit(points)
    return PQCodec(metric=metric, m=pq_m, ks=pq_ks, seed=seed).fit(points)


def exact_rerank(
    points: np.ndarray,
    query: np.ndarray,
    metric: str,
    ids: np.ndarray,
    k: int,
    qnorm: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-score approx-ordered candidates exactly; return the exact TopK.

    ``ids`` is the (duplicate-free) re-rank pool in approximate-distance
    order; ties in the exact sort resolve by that order (stable), so both
    backends produce identical output for identical pools.  ``qnorm`` is
    the cached squared query norm (the engines' norms-expansion term),
    making the exact distances bit-identical to a float32 traversal's.
    """
    if ids.size == 0:
        return ids.copy(), np.empty(0, dtype=np.float32)
    pts = points[ids]
    d = pair_distances(
        np.broadcast_to(query, pts.shape), pts, metric,
        a_norms=None if qnorm is None else np.broadcast_to(qnorm, ids.shape),
    )
    order = np.argsort(d, kind="stable")[: min(k, ids.size)]
    return ids[order].copy(), d[order].copy()


def append_rerank_steps(
    trace: TraceBuilder, ctas, n_scored, dim: int, best_dist
) -> None:
    """The float32 re-rank pass as one priced trace step per CTA in ``ctas``.

    ``n_scored`` full-width exact distances plus one sort of the pool —
    the same accounting the IVF-PQ baseline uses for its re-rank scan.
    """
    n_scored = np.asarray(n_scored, dtype=np.int64)
    trace.append(
        ctas,
        n_new_points=n_scored,
        dim=dim,
        sort_size=n_scored,
        did_sort=n_scored > 1,
        best_dist=best_dist,
        precision="float32",
    )
