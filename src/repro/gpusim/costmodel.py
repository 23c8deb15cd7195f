"""Analytic cost model: op traces → time.

Prices every step of a :class:`~repro.gpusim.trace.TraceTable` as the sum
of five components (matching the kernel phases in §IV-B of the paper):

``select``   scan the candidate list for the next unvisited candidate(s)
``fetch``    read adjacency lists from global memory
``filter``   probe/update the visited bitmap
``distance`` per-dimension FMAs distributed over the CTA's threads plus a
             warp-shuffle reduction per neighbour (Alg. 1 lines 10–13)
``sort``     bitonic sort of the expand list + bitonic merge into the
             candidate list (the maintenance the paper measures in Fig. 3)

Latencies are expressed in SM cycles and converted to microseconds with the
device clock.  The default constants are calibrated so that, at the paper's
operating points, sorting accounts for roughly 20–34 % of search time on the
low/medium-dimension datasets and proportionally less at 960 d — the ratios
Fig. 3 reports.  Absolute times are not calibrated to the A6000 (out of
scope per DESIGN.md); only the *composition* and *scaling* of the time are.

A whole table is priced in one numpy pass: each phase is computed for all
rows at once, then summed per CTA in step order (``np.bincount`` adds a
CTA's rows one after another from 0.0), so every per-CTA float is the
same sequence of float64 operations as a step-by-step loop would make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import DeviceProperties
from .trace import PRECISIONS, CTATrace, QueryTrace, StepRecord, TraceTable

__all__ = [
    "CostParams",
    "StepCost",
    "CTACost",
    "TableCost",
    "CostModel",
    "bitonic_stage_count",
    "bitonic_groups",
]

_INT8 = PRECISIONS.index("int8")
_PQ = PRECISIONS.index("pq")


def _ceil_div(a, b):
    return -(-a // b)


def bitonic_stage_count(n: int) -> int:
    """Compare-exchange stages of a full bitonic sort of ``n`` elements.

    ``n`` is rounded up to a power of two (GPU bitonic networks pad with
    sentinels).  A full sort of ``2^k`` items has ``k(k+1)/2`` stages.
    """
    if n <= 1:
        return 0
    k = max(1, math.ceil(math.log2(n)))
    return k * (k + 1) // 2


#: full bitonic-sort stage count by padded exponent k (``2^k`` items)
_SORT_STAGES = np.array([k * (k + 1) // 2 for k in range(64)], dtype=np.int64)


def _pad_exponent(n: np.ndarray) -> np.ndarray:
    """``max(1, ceil(log2(n)))`` for integer ``n >= 2``, in integer math:
    the bit length of ``n - 1`` (frexp's exponent is exact below 2^53)."""
    e = np.frexp(np.maximum(n - 1, 1).astype(np.float64))[1]
    return np.maximum(e.astype(np.int64), 1)


def bitonic_groups(
    sort_size: np.ndarray, cand_list_len: np.ndarray, threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Warp-wide compare-exchange groups of each step's maintenance:
    ``(sort, merge)`` — the bitonic sort of the expand list and the bitonic
    merge into the candidate list, each padded to a power of two (0 where
    the network is trivial)."""
    expand_n = np.maximum(sort_size - cand_list_len, 0)
    ke, km = _pad_exponent(expand_n), _pad_exponent(sort_size)
    sort = np.where(
        expand_n > 1,
        _SORT_STAGES[ke] * _ceil_div(np.left_shift(1, ke - 1), threads),
        0,
    )
    merge = np.where(
        sort_size > 1, km * _ceil_div(np.left_shift(1, km - 1), threads), 0
    )
    return sort, merge


@dataclass(frozen=True)
class CostParams:
    """Per-operation cycle costs (tunable; defaults per module docstring)."""

    #: cycles per warp-wide distance iteration (32 loads + FMAs, pipelined)
    fma_iter_cycles: float = 8.0
    #: cycles per warp-shuffle step of the per-neighbour reduction
    shuffle_cycles: float = 2.0
    #: cycles per warp-wide bitonic compare-exchange group (shared memory
    #: load/store pair + compare + syncwarp)
    cmpex_cycles: float = 16.0
    #: cycles per warp-wide candidate-list scan iteration during selection
    scan_cycles: float = 8.0
    #: cycles per warp-wide visited-bitmap probe group (L2-cached global)
    bitmap_cycles: float = 30.0
    #: fixed per-step control overhead (loop, branches, syncs)
    step_fixed_cycles: float = 50.0
    #: CPU nanoseconds per heap operation in the host-side TopK merge
    #: (cache-hot small heaps on a modern core)
    cpu_heap_op_ns: float = 2.5
    #: CPU nanoseconds per element for result filtering/copy on the host
    cpu_filter_ns: float = 1.0
    #: cycles per element-move group in the GPU divide-and-conquer merge
    #: kernel (global-memory bound — this is why the paper offloads it)
    gpu_merge_elem_cycles: float = 60.0
    #: int8 MACs packed per lane-cycle in the quantized distance kernel
    #: (DP4A: one instruction multiply-accumulates 4 int8 pairs)
    int8_mac_pack: float = 4.0
    #: cycles per warp-wide PQ ADC table-lookup group (shared-memory gather
    #: — slower than an FMA group because lookups are bank-conflict prone,
    #: but each covers a whole subspace instead of one dimension)
    lut_lookup_cycles: float = 12.0
    #: CPU nanoseconds per dimension of a host-side float32 distance
    #: (SIMD FMA throughput on one core; the hybrid tier's refine walk)
    cpu_fma_ns: float = 0.05
    #: effective host memory bandwidth for streaming full-precision
    #: vectors during CPU refinement, GB/s — each fetch is a contiguous
    #: multi-KB row, so this sits near DDR5 sequential rates, still far
    #: below device HBM (which is exactly why the pilot stage runs on GPU)
    host_mem_bw_gbps: float = 40.0


@dataclass(frozen=True)
class StepCost:
    """Time breakdown of one step, microseconds."""

    select_us: float
    fetch_us: float
    filter_us: float
    distance_us: float
    sort_us: float

    @property
    def total_us(self) -> float:
        return self.select_us + self.fetch_us + self.filter_us + self.distance_us + self.sort_us


@dataclass(frozen=True)
class CTACost:
    """Aggregate cost of a CTA trace, microseconds."""

    select_us: float
    fetch_us: float
    filter_us: float
    distance_us: float
    sort_us: float
    result_write_us: float
    n_steps: int

    @property
    def compute_us(self) -> float:
        """Everything except sorting (the paper's "calculation" bucket)."""
        return (
            self.select_us
            + self.fetch_us
            + self.filter_us
            + self.distance_us
            + self.result_write_us
        )

    @property
    def total_us(self) -> float:
        return self.compute_us + self.sort_us

    @property
    def sort_fraction(self) -> float:
        """Share of time spent sorting (Fig. 3 / Fig. 17 quantity)."""
        t = self.total_us
        return self.sort_us / t if t > 0 else 0.0


@dataclass(frozen=True)
class TableCost:
    """Per-CTA (or, after :meth:`per_query`, per-query) cost arrays of a
    :class:`~repro.gpusim.trace.TraceTable`, microseconds."""

    select_us: np.ndarray
    fetch_us: np.ndarray
    filter_us: np.ndarray
    distance_us: np.ndarray
    sort_us: np.ndarray
    result_write_us: np.ndarray
    n_steps: np.ndarray

    @property
    def compute_us(self) -> np.ndarray:
        """Everything except sorting (the paper's "calculation" bucket)."""
        return (
            self.select_us
            + self.fetch_us
            + self.filter_us
            + self.distance_us
            + self.result_write_us
        )

    @property
    def total_us(self) -> np.ndarray:
        return self.compute_us + self.sort_us

    @property
    def sort_fraction(self) -> np.ndarray:
        """Share of time spent sorting (Fig. 3 / Fig. 17 quantity)."""
        t = self.total_us
        return np.divide(self.sort_us, t, out=np.zeros_like(t), where=t > 0)

    def __getitem__(self, i: int) -> CTACost:
        return CTACost(
            float(self.select_us[i]),
            float(self.fetch_us[i]),
            float(self.filter_us[i]),
            float(self.distance_us[i]),
            float(self.sort_us[i]),
            float(self.result_write_us[i]),
            int(self.n_steps[i]),
        )

    def per_query(self, table: TraceTable) -> TableCost:
        """Sum each query's CTAs of ``table`` (in CTA order, from 0.0)."""
        q = np.repeat(np.arange(table.n_queries), table.ctas_per_query())
        n = table.n_queries

        def seg(x):
            return np.bincount(q, weights=x, minlength=n)

        return TableCost(
            seg(self.select_us), seg(self.fetch_us), seg(self.filter_us),
            seg(self.distance_us), seg(self.sort_us), seg(self.result_write_us),
            seg(self.n_steps).astype(np.int64),
        )


class CostModel:
    """Prices traces on a given device with given per-op constants."""

    def __init__(
        self,
        device: DeviceProperties,
        params: CostParams | None = None,
        threads_per_cta: int | None = None,
    ):
        self.device = device
        self.params = params or CostParams()
        # Paper §IV-C: threads per block are set to the warp size.
        if threads_per_cta is not None and threads_per_cta <= 0:
            raise ValueError("threads_per_cta must be positive")
        self.threads = int(threads_per_cta if threads_per_cta else device.warp_size)
        self._us = device.cycles_to_us

    # ------------------------------------------------------------------ GPU
    def step_phases(self, table: TraceTable) -> tuple[np.ndarray, ...]:
        """Per-step ``(select, fetch, filter, distance, sort)`` costs (µs)
        of every row of ``table``."""
        p, t, dev = self.params, self.threads, self.device
        clk = dev.clock_ghz * 1e3  # cycles per µs
        bw = dev.global_mem_bw_gbps * 1e3  # bytes per µs
        n_exp = table.n_expanded
        cll = table.cand_list_len
        select = (
            _ceil_div(np.maximum(cll, 1), t) * p.scan_cycles * n_exp
        ) / clk + p.step_fixed_cycles / clk
        # Adjacency fetch: one global-memory round trip per expanded
        # candidate plus streaming the neighbour ids.
        fetch = (
            n_exp * (dev.global_mem_latency_cycles / clk)
            + (table.n_neighbors_fetched * 4) / bw
        )
        checks = table.n_visited_checks
        filter_ = np.where(
            checks > 0,
            (_ceil_div(np.maximum(checks, 1), t) * p.bitmap_cycles) / clk,
            0.0,
        )
        # Distance: float32 streams 4 bytes/dimension through per-dimension
        # FMAs; int8 (DP4A) packs int8_mac_pack MACs per lane-cycle over 1
        # byte/dimension; pq holds dim = m and pays one shared-memory table
        # lookup per subspace per point over 1 byte/code.
        n_new = table.n_new_points
        work = n_new * table.dim
        int8 = table.precision == _INT8
        pq = table.precision == _PQ
        pack = max(int(p.int8_mac_pack), 1)
        iters = _ceil_div(work, np.where(int8, t * pack, t))
        lane_cycles = iters * np.where(pq, p.lut_lookup_cycles, p.fma_iter_cycles)
        vec_bytes = work * np.where(int8 | pq, 1, 4)
        reduce_steps = n_new * max(1, int(math.log2(t)))
        distance = np.where(
            n_new > 0,
            (lane_cycles + reduce_steps * p.shuffle_cycles) / clk + vec_bytes / bw,
            0.0,
        )
        # Sort: bitonic sort of the expand list + bitonic merge into the
        # candidate list.
        sort_groups, merge_groups = bitonic_groups(table.sort_size, cll, t)
        sort_cycles = sort_groups * p.cmpex_cycles + merge_groups * p.cmpex_cycles
        sort = np.where(table.did_sort, sort_cycles / clk, 0.0)
        return select, fetch, filter_, distance, sort

    def price(self, table: TraceTable) -> TableCost:
        """Per-CTA cost breakdown of a whole table in one pass."""
        cta = table.cta_of_row()
        n = table.n_ctas

        def seg(x):
            return np.bincount(cta, weights=x, minlength=n)

        sel, fet, fil, dis, srt = (seg(x) for x in self.step_phases(table))
        rl = table.result_len
        write = np.where(
            rl > 0,
            self._us(self.device.global_mem_latency_cycles)
            + (rl * 8) / (self.device.global_mem_bw_gbps * 1e3),
            0.0,
        )
        return TableCost(sel, fet, fil, dis, srt, write, table.steps_per_cta())

    def query_durations_us(self, table: TraceTable) -> list[tuple[float, ...]]:
        """Per query, the busy time of each of its CTAs (engine job input)."""
        tot = self.price(table).total_us.tolist()
        qo = table.query_offsets.tolist()
        return [tuple(tot[a:b]) for a, b in zip(qo[:-1], qo[1:])]

    def query_gpu_times_us(self, table: TraceTable) -> np.ndarray:
        """GPU time of every query = its slowest CTA (CTAs run concurrently
        on distinct blocks); 0 for a query without CTAs."""
        tot = self.price(table).total_us
        out = np.zeros(table.n_queries)
        has = table.ctas_per_query() > 0
        if has.any():
            out[has] = np.maximum.reduceat(tot, table.query_offsets[:-1][has])
        return out

    # ------------------------------------------------- single-trace views
    def step_cost(self, step: StepRecord) -> StepCost:
        """Price a single search step (a one-row table)."""
        phases = self.step_phases(TraceTable.from_steps([[step]]))
        return StepCost(*(float(x[0]) for x in phases))

    def step_durations_us(self, trace: CTATrace) -> list[float]:
        """Per-step durations of one CTA (partitioned-kernel ablation)."""
        sel, fet, fil, dis, srt = self.step_phases(trace.table.take_cta(trace.index))
        return (sel + fet + fil + dis + srt).tolist()

    def cta_cost(self, trace: CTATrace) -> CTACost:
        """Aggregate cost of everything a CTA did for one query."""
        return self.price(trace.table.take_cta(trace.index))[0]

    def cta_duration_us(self, trace: CTATrace) -> float:
        """Wall-clock a CTA is busy serving its share of one query."""
        return self.cta_cost(trace).total_us

    def query_gpu_time_us(self, qt: QueryTrace) -> float:
        """GPU time for one query = the slowest of its CTAs."""
        return float(self.query_gpu_times_us(qt.table.take_queries([qt.index]))[0])

    # ------------------------------------------------------------------ CPU
    def cpu_merge_us(self, n_lists: int, k: int) -> float:
        """Host-side priority-queue merge of ``n_lists`` sorted TopK lists.

        This is step ④ of the paper's search process (Result Merge&Filter).
        The k-way heap merge touches only the list heads plus the ``k``
        emitted elements — O(T + k·log T) operations, *not* O(T·k) — which
        is precisely why the CPU keeps up with the GPU (§IV-B).
        """
        if n_lists <= 1:
            return self.params.cpu_filter_ns * k * 1e-3
        ops = n_lists + k * (1 + math.log2(n_lists))
        return (ops * self.params.cpu_heap_op_ns + k * self.params.cpu_filter_ns) * 1e-3

    def cpu_refine_us(self, n_dists: int, dim: int, ef: int = 1) -> float:
        """Host-side bounded graph walk of the hybrid tier (stage 3).

        ``n_dists`` full-width float32 distances against host-resident
        vectors: each costs ``dim`` SIMD FMAs plus streaming ``4·dim``
        bytes from host memory (the dominant term at high dimension —
        random vector fetches run at DDR, not HBM, speed), and each scored
        point pays ~``log2(ef)`` heap operations to maintain the bounded
        candidate list.
        """
        if n_dists <= 0:
            return 0.0
        p = self.params
        bytes_ = n_dists * dim * 4
        heap_ops = n_dists * max(1.0, math.log2(max(ef, 2)))
        ns = (
            n_dists * dim * p.cpu_fma_ns
            + heap_ops * p.cpu_heap_op_ns
            + bytes_ / p.host_mem_bw_gbps
        )
        return ns * 1e-3

    # ---------------------------------------------------------- GPU (merge)
    def gpu_merge_us(self, n_lists: int, k: int) -> float:
        """Cross-CTA divide-and-conquer merge *on the GPU* (ablation).

        Models the baseline CAGRA behaviour the paper argues against: a
        separate merge pass over global memory where, per round, half the
        participating threads idle.  Includes the extra kernel launch that
        interrupts a persistent kernel.
        """
        if n_lists <= 1:
            return 0.0
        p, t = self.params, self.threads
        rounds = max(1, math.ceil(math.log2(n_lists)))
        cycles = 0.0
        active = n_lists
        for _ in range(rounds):
            pairs = _ceil_div(active, 2)
            cycles += _ceil_div(pairs * k, t) * p.gpu_merge_elem_cycles
            active = pairs
        return self.device.kernel_launch_us + self._us(cycles)
