"""Product quantization (PQ) and the IVF-PQ baseline index.

FAISS-GPU — the paper's IVF comparator [21] — is most commonly deployed as
IVF-PQ at scale: vectors are compressed into ``m`` sub-codebook codes, and
query–vector distances are approximated with per-subspace lookup tables
(ADC, asymmetric distance computation).  We implement the full pipeline:

* :class:`ProductQuantizer` — per-subspace k-means codebooks, encode /
  decode / ADC tables;
* :class:`IVFPQIndex` — IVF coarse quantizer over PQ-encoded residual-free
  vectors with table-based scanning and optional exact re-ranking.

On the simulated GPU a PQ scan replaces per-dimension FMAs with ``m`` table
lookups per point — the op traces reflect that, which is how IVF-PQ's
latency/recall trade-off differs from IVF-Flat in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.metrics import query_distances
from ..gpusim.trace import TraceBuilder
from .intra_cta import SearchResult
from .ivf import kmeans

__all__ = ["ProductQuantizer", "IVFPQIndex", "ScalarQuantizer"]


class ProductQuantizer:
    """Classic PQ: split ``dim`` into ``m`` subspaces with ``ks`` centroids.

    Codes are ``uint8`` (``ks <= 256``).  Distances are squared-L2; for
    cosine corpora normalize vectors first (then 1 - dot ≡ L2²/2 ordering).
    """

    def __init__(
        self,
        m: int = 8,
        ks: int = 256,
        n_iters: int = 15,
        seed: int = 0,
    ):
        if m <= 0:
            raise ValueError("m must be positive")
        if not 1 < ks <= 256:
            raise ValueError("ks must be in (1, 256]")
        self.m = m
        self.ks = ks
        self.n_iters = n_iters
        self.seed = seed
        self.codebooks: np.ndarray | None = None  # (m, ks, dsub)
        self.dim: int | None = None

    # ------------------------------------------------------------ training
    def fit(self, vectors: np.ndarray) -> "ProductQuantizer":
        vectors = np.asarray(vectors, dtype=np.float32)
        n, dim = vectors.shape
        if dim % self.m != 0:
            raise ValueError(f"dim {dim} not divisible by m={self.m}")
        ks = min(self.ks, n)
        dsub = dim // self.m
        self.dim = dim
        self.codebooks = np.empty((self.m, ks, dsub), dtype=np.float32)
        for j in range(self.m):
            sub = vectors[:, j * dsub : (j + 1) * dsub]
            cents, _ = kmeans(sub, ks, n_iters=self.n_iters, seed=self.seed + j)
            self.codebooks[j] = cents
        self.ks = ks
        return self

    def _check_fitted(self) -> None:
        if self.codebooks is None:
            raise RuntimeError("ProductQuantizer is not fitted")

    # ------------------------------------------------------------- codecs
    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize rows to ``(n, m) uint8`` codes."""
        self._check_fitted()
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        n, dim = vectors.shape
        if dim != self.dim:
            raise ValueError("dimension mismatch")
        dsub = dim // self.m
        codes = np.empty((n, self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = vectors[:, j * dsub : (j + 1) * dsub]
            # (n, ks) distances via the expansion; argmin per row
            c = self.codebooks[j]
            d = (
                np.einsum("nd,nd->n", sub, sub)[:, None]
                - 2.0 * sub @ c.T
                + np.einsum("kd,kd->k", c, c)[None, :]
            )
            codes[:, j] = d.argmin(axis=1).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct (approximate) vectors from codes."""
        self._check_fitted()
        codes = np.asarray(codes)
        if codes.ndim == 1:
            codes = codes[None, :]
        n = codes.shape[0]
        dsub = self.dim // self.m
        out = np.empty((n, self.dim), dtype=np.float32)
        for j in range(self.m):
            out[:, j * dsub : (j + 1) * dsub] = self.codebooks[j][codes[:, j]]
        return out

    # ----------------------------------------------------------------- ADC
    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """Per-subspace lookup table ``(m, ks)``: d(query_sub, centroid)²."""
        self._check_fitted()
        query = np.asarray(query, dtype=np.float32)
        dsub = self.dim // self.m
        table = np.empty((self.m, self.ks), dtype=np.float32)
        for j in range(self.m):
            qs = query[j * dsub : (j + 1) * dsub]
            diff = self.codebooks[j] - qs
            table[j] = np.einsum("kd,kd->k", diff, diff)
        return table

    def adc_distances(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate distances of coded points to the table's query."""
        codes = np.asarray(codes)
        return table[np.arange(self.m)[None, :], codes].sum(axis=1)

    def quantization_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error (codebook quality metric)."""
        rec = self.decode(self.encode(vectors))
        return float(((np.asarray(vectors, dtype=np.float32) - rec) ** 2).sum(1).mean())


@dataclass
class _PQLists:
    offsets: np.ndarray
    ids: np.ndarray


class IVFPQIndex:
    """IVF coarse quantizer + PQ-compressed inverted lists.

    ``search`` scans the ``nprobe`` nearest lists with ADC tables and
    optionally re-ranks the best ``rerank`` candidates with exact
    distances (standard FAISS practice — without it recall saturates at
    the quantizer's resolution).
    """

    def __init__(
        self,
        points: np.ndarray,
        nlist: int = 64,
        m: int = 8,
        ks: int = 256,
        metric: str = "l2",
        seed: int = 0,
    ):
        self.points = np.asarray(points, dtype=np.float32)
        self.metric = metric
        self.nlist = int(nlist)
        self.centroids, assign = kmeans(self.points, self.nlist, seed=seed)
        order = np.argsort(assign, kind="stable")
        counts = np.bincount(assign, minlength=self.nlist)
        offsets = np.zeros(self.nlist + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._lists = _PQLists(offsets, order.astype(np.int64))
        self.pq = ProductQuantizer(m=m, ks=ks, seed=seed).fit(self.points)
        self.codes = self.pq.encode(self.points)

    def list_ids(self, c: int) -> np.ndarray:
        o = self._lists.offsets
        return self._lists.ids[o[c] : o[c + 1]]

    def search(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        rerank: int = 0,
        record_trace: bool = True,
    ) -> SearchResult:
        """ADC scan of ``nprobe`` lists; optional exact re-rank."""
        if not 0 < nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in [1, {self.nlist}]")
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float32)
        coarse = query_distances(query, self.centroids, self.metric)
        probe = np.argsort(coarse, kind="stable")[:nprobe]
        cand = np.concatenate([self.list_ids(int(c)) for c in probe])
        if cand.size == 0:
            return SearchResult(np.empty(0, np.int64), np.empty(0, np.float32))
        table = self.pq.adc_table(query)
        approx = self.pq.adc_distances(table, self.codes[cand])
        if rerank > 0:
            r = min(max(rerank, k), cand.size)
            short = cand[np.argpartition(approx, r - 1)[:r]]
            exact = query_distances(query, self.points[short], self.metric)
            kk = min(k, short.size)
            part = np.argpartition(exact, kk - 1)[:kk]
            order = part[np.argsort(exact[part], kind="stable")]
            ids, dists = short[order], exact[order]
        else:
            kk = min(k, cand.size)
            part = np.argpartition(approx, kk - 1)[:kk]
            order = part[np.argsort(approx[part], kind="stable")]
            ids, dists = cand[order], approx[order]

        trace = None
        if record_trace:
            dim = int(self.points.shape[1])
            steps = TraceBuilder(1)
            # coarse scoring (full-dimension distances)
            steps.append(
                0, n_neighbors_fetched=self.nlist, n_new_points=self.nlist,
                dim=dim, sort_size=self.nlist, did_sort=True,
            )
            # ADC scan: m table lookups per point ≈ m-dim distance work
            steps.append(
                0, n_neighbors_fetched=cand.size, n_new_points=cand.size,
                dim=self.pq.m, sort_size=min(cand.size, 4 * k), did_sort=True,
            )
            if rerank > 0:  # exact re-rank of the r-point shortlist
                steps.append(
                    0, n_neighbors_fetched=r, n_new_points=r, dim=dim,
                    sort_size=4 * k, did_sort=True,
                )
            steps.result_len[0] = ids.size
            trace = steps.build(query_dim=dim, k=k).cta(0)
        return SearchResult(
            ids=ids.astype(np.int64), dists=dists.astype(np.float32), trace=trace
        )


class ScalarQuantizer:
    """SQ8: per-dimension affine quantization to uint8.

    The lighter-weight FAISS compression: 4× smaller than float32 with
    near-lossless recall on natural corpora.  ``encode``/``decode`` use
    per-dimension (min, max) ranges learned from the training set;
    distances are computed on reconstructions (symmetric).
    """

    def __init__(self):
        self.lo: np.ndarray | None = None
        self.scale: np.ndarray | None = None

    def fit(self, vectors: np.ndarray) -> "ScalarQuantizer":
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("vectors must be a non-empty (n, dim) array")
        self.lo = vectors.min(axis=0)
        span = vectors.max(axis=0) - self.lo
        self.scale = np.where(span > 0, span / 255.0, 1.0).astype(np.float32)
        return self

    def _check(self) -> None:
        if self.lo is None:
            raise RuntimeError("ScalarQuantizer is not fitted")

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        self._check()
        v = np.asarray(vectors, dtype=np.float32)
        codes = np.rint((v - self.lo) / self.scale)
        return np.clip(codes, 0, 255).astype(np.uint8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        self._check()
        return codes.astype(np.float32) * self.scale + self.lo

    def quantization_error(self, vectors: np.ndarray) -> float:
        rec = self.decode(self.encode(vectors))
        v = np.asarray(vectors, dtype=np.float32)
        return float(((v - rec) ** 2).sum(1).mean())
