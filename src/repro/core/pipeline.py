"""End-to-end serving systems: the ALGAS facade and its shared machinery.

A system = graph + search algorithm + batching engine + device.  Serving a
query set has two stages, deliberately separated (DESIGN.md §2):

1. **Search** — run the real search kernels per query, producing exact
   results (recall is measured on these) and per-CTA op traces.
2. **Schedule** — price the traces with the cost model and replay them
   through a batching engine, producing latency/throughput under the
   system's discipline.

:class:`BaseGraphSystem` implements both stages; concrete systems
(:class:`ALGASSystem` here, the baselines in :mod:`repro.baselines`) pick
the search variant and engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.workload import QueryEvent, resolve_workload
from ..gpusim.costmodel import CostModel, CostParams
from ..gpusim.device import RTX_A6000, DeviceProperties
from ..gpusim.occupancy import SearchMemoryLayout
from ..gpusim.trace import TraceTable
from ..graphs.base import GraphIndex
from ..graphs.utils import medoid
from ..search.intra_cta import BeamConfig, intra_cta_search
from ..search.multi_cta import make_entries, multi_cta_search
from ..search.precision import PRECISIONS, make_codec
from .dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine
from .host import host_meta
from .serving import QueryJob, ServeConfig, ServeReport, as_serve_config
from .static_batcher import StaticBatchConfig, StaticBatchEngine
from .tuning import TuningResult, tune

__all__ = ["SystemReport", "BaseGraphSystem", "ALGASSystem"]


@dataclass
class SystemReport:
    """Everything a serve run produced."""

    ids: np.ndarray  # (n_queries, k) result ids, -1 padded
    dists: np.ndarray  # (n_queries, k) result distances
    serve: ServeReport
    traces: TraceTable | list = field(repr=False, default_factory=list)

    @property
    def mean_latency_us(self) -> float:
        return self.serve.mean_latency_us()

    @property
    def throughput_qps(self) -> float:
        return self.serve.throughput_qps


class BaseGraphSystem:
    """Shared search→price→schedule machinery for graph ANNS systems."""

    #: subclass tag used in reports
    name = "base"

    def __init__(
        self,
        base: np.ndarray,
        graph: GraphIndex,
        device: DeviceProperties = RTX_A6000,
        metric: str = "l2",
        k: int = 16,
        l_total: int = 128,
        batch_size: int = 16,
        n_parallel: int | None = None,
        max_parallel: int = 8,
        beam: BeamConfig | None = None,
        cost_params: CostParams | None = None,
        entries_per_cta: int = 2,
        seed: int = 0,
        backend: str = "vectorized",
        build_info: dict | None = None,
        precision: str = "float32",
        rerank_mult: int = 2,
        pq_m: int | None = None,
        pq_ks: int = 256,
    ):
        if k <= 0 or l_total < k:
            raise ValueError("need 0 < k <= l_total")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if backend not in ("scalar", "vectorized", "compiled"):
            raise ValueError(f"unknown backend {backend!r}")
        if precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision!r}; expected one of {PRECISIONS}"
            )
        if rerank_mult < 1:
            raise ValueError("rerank_mult must be >= 1")
        self.backend = backend
        #: traversal distance substrate + exact re-rank pool multiplier
        #: (repro.search.precision); ServeConfig can override per serve.
        self.precision = precision
        self.rerank_mult = rerank_mult
        self.pq_m = pq_m
        self.pq_ks = pq_ks
        self._codec_cache: dict[str, object] = {}
        #: graph-construction provenance (e.g. ``{"build_backend": ...,
        #: "build_seconds": ...}``) merged into ``ServeReport.meta["build"]``
        #: on every serve — mirrors the ``search_backend`` meta key.
        self.build_info = dict(build_info) if build_info else None
        self.base = np.asarray(base, dtype=np.float32)
        self.graph = graph
        self.device = device
        self.metric = metric
        self.k = k
        self.l_total = l_total
        self.batch_size = batch_size
        self.beam = beam
        self.entries_per_cta = entries_per_cta
        self.seed = seed
        self.cost_model = CostModel(device, cost_params)
        self.tuning: TuningResult = tune(
            device,
            n_slots=batch_size,
            l_total=l_total,
            k=k,
            max_degree=graph.max_degree,
            dim=int(self.base.shape[1]),
            beam_width=beam.beam_width if beam else 1,
            max_parallel=n_parallel or max_parallel,
        )
        if n_parallel is not None and self.tuning.n_parallel < n_parallel:
            raise ValueError(
                f"requested n_parallel={n_parallel} is infeasible "
                f"(tuner max for this config: {self.tuning.n_parallel})"
            )
        self._medoid = medoid(self.base, metric)

    # ------------------------------------------------------------ searching
    @property
    def n_parallel(self) -> int:
        return self.tuning.n_parallel

    def _single_cta_entries(self, rng: np.random.Generator) -> np.ndarray:
        return (
            make_entries(self.base.shape[0], 1, self.entries_per_cta, rng)[0]
            if self.entries_per_cta > 1
            else np.array([self._medoid])
        )

    def traversal_codec(self, precision: str | None = None):
        """The fitted traversal codec for ``precision`` (None → system's).

        Codecs are fitted lazily on the base vectors and cached per
        precision — fitting (SQ ranges / PQ codebooks + corpus encode) is
        a build-time cost paid once, like graph construction.
        """
        p = precision or self.precision
        if p not in PRECISIONS:
            raise ValueError(f"unknown precision {p!r}; expected one of {PRECISIONS}")
        if p == "float32":
            return None
        if p not in self._codec_cache:
            self._codec_cache[p] = make_codec(
                p, self.base, metric=self.metric,
                pq_m=self.pq_m, pq_ks=self.pq_ks, seed=self.seed,
            )
        return self._codec_cache[p]

    def search_one(self, query: np.ndarray, rng: np.random.Generator,
                   backend: str | None = None, precision: str | None = None,
                   rerank_mult: int | None = None):
        """Run the system's search for one query; returns a SearchResult."""
        backend = backend or self.backend
        codec = self.traversal_codec(precision)
        rm = rerank_mult or self.rerank_mult
        if self.n_parallel == 1:
            return intra_cta_search(
                self.base, self.graph, query, self.k,
                self.tuning.per_cta_cand_len, self._single_cta_entries(rng),
                metric=self.metric, beam=self.beam, backend=backend,
                codec=codec, rerank_mult=rm,
            )
        return multi_cta_search(
            self.base, self.graph, query, self.k, self.l_total, self.n_parallel,
            metric=self.metric, beam=self.beam,
            entries_per_cta=self.entries_per_cta, rng=rng, backend=backend,
            codec=codec, rerank_mult=rm,
        )

    def search_all(self, queries: np.ndarray, backend: str | None = None,
                   seed: int | None = None, precision: str | None = None,
                   rerank_mult: int | None = None):
        """Search every query; returns padded ids/dists and the traces
        (a :class:`~repro.gpusim.trace.TraceTable`, query ``i`` = row ``i``).

        With the vectorized backend the whole query set advances in one
        lockstep SoA batch (all queries × all CTAs); entry points are drawn
        from the rng in the same per-query order as the scalar loop, so the
        two backends return byte-identical results and traces.
        ``backend``/``seed``/``precision``/``rerank_mult`` override the
        system's configured values for this call (the
        :class:`~repro.core.serving.ServeConfig` knobs).
        """
        backend = backend or self.backend
        rng = np.random.default_rng(self.seed if seed is None else seed)
        nq = queries.shape[0]
        if backend in ("vectorized", "compiled"):
            from ..search.compiled import resolve_backend

            results = self._search_all_vectorized(
                queries, rng, precision=precision, rerank_mult=rerank_mult,
                compiled=resolve_backend(backend) == "compiled",
            )
        else:
            results = (
                self.search_one(queries[i], rng, backend,
                                precision=precision, rerank_mult=rerank_mult)
                for i in range(nq)
            )
        ids = np.full((nq, self.k), -1, dtype=np.int64)
        dists = np.full((nq, self.k), np.inf, dtype=np.float32)
        views = []
        for i, r in enumerate(results):
            m = min(self.k, len(r.ids))
            ids[i, :m] = r.ids[:m]
            dists[i, :m] = r.dists[:m]
            views.append(r.trace)
        return ids, dists, TraceTable.gather(views)

    def _search_all_vectorized(self, queries: np.ndarray, rng: np.random.Generator,
                               precision: str | None = None,
                               rerank_mult: int | None = None,
                               compiled: bool = False):
        from ..search.batched import (
            batched_intra_cta_search,
            batched_multi_cta_search,
        )

        codec = self.traversal_codec(precision)
        rm = rerank_mult or self.rerank_mult
        nq = queries.shape[0]
        if self.n_parallel == 1:
            entries = [self._single_cta_entries(rng) for _ in range(nq)]
            return batched_intra_cta_search(
                self.base, self.graph, queries, self.k,
                self.tuning.per_cta_cand_len, entries,
                metric=self.metric, beam=self.beam,
                codec=codec, rerank_mult=rm, compiled=compiled,
            )
        entries = [
            make_entries(self.base.shape[0], self.n_parallel, self.entries_per_cta, rng)
            for _ in range(nq)
        ]
        return batched_multi_cta_search(
            self.base, self.graph, queries, self.k, self.l_total, self.n_parallel,
            metric=self.metric, beam=self.beam, entries=entries,
            codec=codec, rerank_mult=rm, compiled=compiled,
        )

    # -------------------------------------------------------------- pricing
    def jobs_from_traces(
        self, traces: TraceTable, events: list[QueryEvent]
    ) -> list[QueryJob]:
        """Price traces (one table pass) into engine jobs, one per event."""
        if len(traces) != len(events):
            raise ValueError("one trace per event required")
        return [
            QueryJob(
                query_id=ev.query_id,
                arrival_us=ev.arrival_us,
                cta_durations_us=durs,
                dim=traces.query_dim,
                k=self.k,
            )
            for ev, durs in zip(events, self.cost_model.query_durations_us(traces))
        ]

    def mem_per_block(self) -> int:
        return self.tuning.block_shared_mem_bytes

    # ------------------------------------------------------------- serving
    def make_engine(self, slots: int | None = None, telemetry=None,
                    faults=None, resilience=None):  # pragma: no cover
        """Build the system's batching engine (abstract).

        ``slots`` overrides the configured slot count / batch size for one
        serve; ``telemetry`` instruments the engine; ``faults`` /
        ``resilience`` arm the chaos plane and its defenses (all four are
        the :class:`~repro.core.serving.ServeConfig` knobs).
        """
        raise NotImplementedError

    @staticmethod
    def _run_engine(engine, jobs, spec) -> ServeReport:
        """Run ``jobs`` through ``engine``, honouring an admission spec.

        A :class:`~repro.data.workload.TrafficSpec` with ``deadline_us`` /
        ``max_queue_depth`` needs an admission queue, which only the
        dynamic engine has; the static baselines dispatch fixed batches
        with no queue to shed from, so they reject such specs loudly
        rather than silently ignoring the contract.
        """
        if spec is None:
            return engine.serve(jobs)
        if not isinstance(engine, DynamicBatchEngine):
            raise ValueError(
                f"admission control (deadline_us/max_queue_depth) requires "
                f"the dynamic batching engine; {type(engine).__name__} has "
                f"no admission queue"
            )
        managed = None
        if spec.deadline_us is not None:
            from .query_manager import ManagedQuery

            managed = [
                ManagedQuery(j, deadline_us=j.arrival_us + spec.deadline_us)
                for j in jobs
            ]
        return engine.serve(
            jobs, managed=managed, max_queue_depth=spec.max_queue_depth
        )

    def _host_meta(self, jobs: list[QueryJob], n_slots: int) -> dict | None:
        """Closed-form host-thread provenance for ``meta["host"]``.

        Base systems have no host-thread model (the static baselines
        dispatch fixed batches); :class:`ALGASSystem` overrides this with
        the §V-B estimate so every serve carries the slot partition and
        the predicted thread saturation point.
        """
        return None

    def _serve_hybrid(self, queries: np.ndarray, cfg) -> "SystemReport":
        """Hybrid-tier serve hook; only pilot-equipped systems provide it."""
        raise ValueError(
            f"tier='hybrid' requires a system with a pilot index "
            f"(repro.hybrid.HybridSystem); {type(self).__name__} serves "
            f"tier='gpu' only"
        )

    def serve(
        self,
        queries: np.ndarray,
        config: ServeConfig | None = None,
    ) -> SystemReport:
        """Search + schedule a query set (closed loop by default).

        ``config`` is the unified :class:`~repro.core.serving.ServeConfig`;
        its ``workload`` takes the declarative
        :class:`~repro.data.workload.ArrivalProcess` /
        :class:`~repro.data.workload.TrafficSpec` hierarchy or a plain
        ``QueryEvent`` list (docs/load_testing.md).
        """
        cfg = as_serve_config(config, owner=f"{type(self).__name__}.serve")
        tier = cfg.tier or getattr(self, "tier", None) or "gpu"
        if tier == "hybrid":
            return self._serve_hybrid(queries, cfg)
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        evs, spec = resolve_workload(cfg.workload, queries.shape[0])
        precision = cfg.precision or self.precision
        rerank_mult = cfg.rerank_mult or self.rerank_mult
        ids, dists, traces = self.search_all(
            queries, backend=cfg.backend, seed=cfg.seed,
            precision=precision, rerank_mult=rerank_mult,
        )
        ordered = sorted(evs, key=lambda e: e.query_id)
        jobs = self.jobs_from_traces(traces, ordered)
        engine = self.make_engine(
            slots=cfg.slots, telemetry=cfg.telemetry,
            faults=cfg.faults, resilience=cfg.resilience,
        )
        report = self._run_engine(engine, jobs, spec)
        host = self._host_meta(jobs, cfg.slots or self.batch_size)
        if host is not None:
            report.meta["host"] = host
        codec = self.traversal_codec(precision)
        report.meta["precision"] = {
            "precision": precision,
            "rerank_mult": rerank_mult if precision != "float32" else None,
            "codec": None if codec is None else codec.info(),
        }
        if self.build_info:
            report.meta.setdefault("build", {}).update(self.build_info)
        return SystemReport(ids=ids, dists=dists, serve=report, traces=traces)


class ALGASSystem(BaseGraphSystem):
    """The full ALGAS stack: dynamic batching on a persistent kernel,
    beam-extend search, CPU TopK merge, GDRCopy state mirrors."""

    name = "algas"

    def __init__(
        self,
        base: np.ndarray,
        graph: GraphIndex,
        device: DeviceProperties = RTX_A6000,
        metric: str = "l2",
        k: int = 16,
        l_total: int = 128,
        batch_size: int = 16,
        n_parallel: int | None = None,
        max_parallel: int = 8,
        beam: BeamConfig | None | bool = True,
        host_threads: int | str = "auto",
        state_mode: str = "gdrcopy",
        merge_on_cpu: bool = True,
        cost_params: CostParams | None = None,
        entries_per_cta: int = 2,
        seed: int = 0,
        backend: str = "vectorized",
        build_info: dict | None = None,
        precision: str = "float32",
        rerank_mult: int = 2,
        pq_m: int | None = None,
        pq_ks: int = 256,
    ):
        if beam is True:
            # Default two-phase split per §IV-C: diffuse once the selected
            # candidate sits past ~L/8 of the per-CTA list, floored at 8 so
            # short lists never enter the diffusing phase mid-localization.
            per_cta = max(k, -(-l_total // (n_parallel or max_parallel)))
            beam = BeamConfig(offset_beam=max(8, per_cta // 8), beam_width=4)
        elif beam is False:
            beam = None
        super().__init__(
            base, graph, device, metric, k, l_total, batch_size,
            n_parallel, max_parallel, beam, cost_params, entries_per_cta, seed,
            backend, build_info, precision=precision, rerank_mult=rerank_mult,
            pq_m=pq_m, pq_ks=pq_ks,
        )
        if host_threads == "auto":
            # §V-B: one host thread struggles above ~16-32 slots; scale the
            # thread pool with the slot count.
            host_threads = -(-batch_size // 16)
        if not isinstance(host_threads, int) or host_threads <= 0:
            raise ValueError("host_threads must be a positive int or 'auto'")
        self.host_threads = host_threads
        self.state_mode = state_mode
        self.merge_on_cpu = merge_on_cpu

    def engine_config(self, slots: int | None = None) -> DynamicBatchConfig:
        """The dynamic-engine config for one serve (``slots`` overrides the
        configured slot count).

        Split from :meth:`make_engine` so the parallel replica fan-out can
        rebuild a byte-identical engine in a worker from picklable parts
        (device + cost model + config) without shipping the corpus.
        """
        return DynamicBatchConfig(
            n_slots=slots or self.batch_size,
            n_parallel=self.n_parallel,
            k=self.k,
            host_threads=self.host_threads,
            state_mode=self.state_mode,
            merge_on_cpu=self.merge_on_cpu,
            search_backend=self.backend,
        )

    def make_engine(self, slots: int | None = None, telemetry=None,
                    faults=None, resilience=None) -> DynamicBatchEngine:
        return DynamicBatchEngine(self.device, self.cost_model,
                                  self.engine_config(slots),
                                  telemetry=telemetry, faults=faults,
                                  resilience=resilience)

    def _host_meta(self, jobs: list[QueryJob], n_slots: int) -> dict | None:
        if not jobs:
            return None
        mean_gpu = float(np.mean([j.gpu_time_us for j in jobs]))
        return host_meta(
            self.device, self.cost_model, n_slots, self.n_parallel, self.k,
            int(self.base.shape[1]), mean_gpu, self.host_threads,
        )
