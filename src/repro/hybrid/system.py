"""The staged hybrid serving system: GPU pilot → PCIe → CPU refine.

:class:`HybridSystem` extends :class:`ALGASSystem` with a `tier` axis:

- ``tier="gpu"`` — byte-identical to the plain ALGAS path (full graph on
  the device); the escape hatch when the corpus fits.
- ``tier="hybrid"`` — stage 1 traverses the device-resident pilot
  subgraph with the normal lockstep engine (reduced dims, full speed),
  stage 2 ships the surviving candidate ids over the simulated PCIe link
  as one batched DMA per query (`result_entries` on the job — PCIe
  stalls now land on the refinement hop), stage 3 walks the full graph
  on the host from those entries (:func:`bounded_refine`) priced by
  :meth:`CostModel.cpu_refine_us` as `host_us` on the job.

Recall is measured on the refined (exact, full-precision) results;
latency comes from the same dynamic batching engine as every other tier,
so telemetry, fault plans, and admission control all compose unchanged.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ALGASSystem, SystemReport
from ..core.serving import QueryJob, as_serve_config
from ..data.workload import resolve_workload
from ..gpusim.device import DeviceProperties, RTX_A6000
from ..graphs.base import GraphIndex
from .pilot import PilotIndex, build_pilot
from .refine import bounded_refine

__all__ = ["HybridSystem"]


class HybridSystem(ALGASSystem):
    """ALGAS with a memory-bounded CPU–GPU hybrid tier."""

    name = "hybrid"

    def __init__(
        self,
        base: np.ndarray,
        graph: GraphIndex,
        device: DeviceProperties = RTX_A6000,
        pilot: PilotIndex | None = None,
        capacity_bytes: int | None = None,
        sample_ratio: float | None = None,
        pilot_dim: int | None = None,
        reduction: str = "svd",
        n_candidates: int = 32,
        refine_ef: int | None = None,
        refine_steps: int = 12,
        pilot_l_total: int | None = None,
        tier: str = "hybrid",
        **kwargs,
    ):
        super().__init__(base, graph, device, **kwargs)
        if tier not in ("gpu", "hybrid"):
            raise ValueError(f"unknown tier {tier!r}; expected 'gpu' or 'hybrid'")
        if n_candidates <= 0:
            raise ValueError("n_candidates must be positive")
        if refine_ef is None:
            # A tight pool: the pilot already localized the walk, so the
            # host only polishes — wide ef just streams more host memory.
            refine_ef = max(n_candidates, self.k)
        if refine_ef < max(self.k, 1):
            raise ValueError("refine_ef must be >= k")
        if refine_steps < 0:
            raise ValueError("refine_steps must be >= 0 (0 = rerank only)")
        #: default tier when ServeConfig does not override it
        self.tier = tier
        self.n_candidates = n_candidates
        self.refine_ef = refine_ef
        self.refine_steps = refine_steps
        if pilot is None:
            pilot = build_pilot(
                self.base, graph, device,
                metric=self.metric,
                capacity_bytes=capacity_bytes,
                sample_ratio=sample_ratio,
                pilot_dim=pilot_dim,
                reduction=reduction,
                seed=self.seed,
                n_slots=self.batch_size,
                n_parallel=self.n_parallel,
                k=n_candidates,
            )
        if pilot.full_n != self.base.shape[0]:
            raise ValueError("pilot was built for a different corpus")
        self.pilot = pilot
        # Stage 1 runs the stock ALGAS stack over the pilot — same engine,
        # same pricing, just smaller/narrower data. k is the candidate
        # count shipped to the host, not the final k, and the walk is
        # shallower than a full-graph search: the pilot only has to land
        # *near* the answers, the CPU walk finishes the job.
        if pilot_l_total is None:
            pilot_l_total = min(max(2 * n_candidates, 32), self.l_total)
        self.pilot_l_total = max(pilot_l_total, n_candidates)
        self._pilot_system = ALGASSystem(
            pilot.points, pilot.graph, device,
            metric=self.metric,
            k=n_candidates,
            l_total=self.pilot_l_total,
            batch_size=self.batch_size,
            host_threads=self.host_threads,
            state_mode=self.state_mode,
            merge_on_cpu=self.merge_on_cpu,
            entries_per_cta=self.entries_per_cta,
            seed=self.seed,
            backend=self.backend,
        )

    # ---------------------------------------------------------- stage 1+3
    def hybrid_search_all(
        self,
        queries: np.ndarray,
        backend: str | None = None,
        seed: int | None = None,
        precision: str | None = None,
        rerank_mult: int | None = None,
    ):
        """Pilot traversal + bounded CPU refinement for a query batch.

        Returns ``(ids, dists, traces, refine)`` — ids/dists are the
        refined full-precision results, traces are the *pilot* traces
        (reduced dim: that is what the device executed and what the query
        DMA ships), and ``refine`` is the :class:`RefineResult` whose op
        counts price the host stage.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        q_red = self.pilot.project(queries)
        p_ids, _, traces = self._pilot_system.search_all(
            q_red, backend=backend, seed=seed,
            precision=precision, rerank_mult=rerank_mult,
        )
        entries_full = self.pilot.to_full(p_ids)
        refine = bounded_refine(
            self.base, self.graph, queries,
            [row for row in entries_full],
            self.k,
            ef=self.refine_ef,
            max_steps=self.refine_steps,
            metric=self.metric,
        )
        return refine.ids, refine.dists, traces, refine

    # ------------------------------------------------------------ serving
    def _make_hybrid_engine(self, cfg):
        """Engine for hybrid serves: slot CTAs match the *pilot* search."""
        from ..core.dynamic_batcher import DynamicBatchConfig, DynamicBatchEngine

        dcfg = DynamicBatchConfig(
            n_slots=cfg.slots or self.batch_size,
            n_parallel=self._pilot_system.n_parallel,
            k=self.k,
            host_threads=self.host_threads,
            state_mode=self.state_mode,
            merge_on_cpu=self.merge_on_cpu,
            search_backend=self.backend,
        )
        return DynamicBatchEngine(
            self.device, self.cost_model, dcfg,
            telemetry=cfg.telemetry, faults=cfg.faults,
            resilience=cfg.resilience,
        )

    def _serve_hybrid(self, queries: np.ndarray, cfg) -> SystemReport:
        cfg = as_serve_config(cfg, owner=f"{type(self).__name__}.serve")
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        evs, spec = resolve_workload(cfg.workload, queries.shape[0])
        precision = cfg.precision or self.precision
        rerank_mult = cfg.rerank_mult or self.rerank_mult
        ids, dists, traces, refine = self.hybrid_search_all(
            queries, backend=cfg.backend, seed=cfg.seed,
            precision=precision, rerank_mult=rerank_mult,
        )
        full_dim = int(self.base.shape[1])
        host_us = [
            self.cost_model.cpu_refine_us(
                int(nd), full_dim, ef=self.refine_ef
            )
            for nd in refine.n_distances
        ]
        ordered = sorted(evs, key=lambda e: e.query_id)
        jobs = [
            QueryJob(
                query_id=ev.query_id,
                arrival_us=ev.arrival_us,
                cta_durations_us=durs,
                dim=traces.query_dim,
                k=self.k,
                host_us=host_us[ev.query_id],
                result_entries=self.n_candidates,
            )
            for ev, durs in zip(ordered, self.cost_model.query_durations_us(traces))
        ]
        engine = self._make_hybrid_engine(cfg)
        report = self._run_engine(engine, jobs, spec)
        plan = self.pilot.plan
        report.meta["tier"] = {
            "tier": "hybrid",
            "pilot": {
                "n_pilot": self.pilot.n_pilot,
                "pilot_dim": self.pilot.pilot_dim,
                "sample_ratio": self.pilot.sample_ratio,
                "reduction": self.pilot.reduction,
                "n_edges": self.pilot.graph.n_edges,
                "footprint_bytes": None if plan is None else plan.total_bytes,
                "fits": None if plan is None else plan.fits,
            },
            "refine": {
                "n_candidates": self.n_candidates,
                "ef": self.refine_ef,
                "max_steps": self.refine_steps,
                "steps_run": refine.n_steps,
                "mean_n_distances": float(refine.n_distances.mean()),
                "mean_host_us": float(np.mean(host_us)),
            },
        }
        codec = self._pilot_system.traversal_codec(precision)
        report.meta["precision"] = {
            "precision": precision,
            "rerank_mult": rerank_mult if precision != "float32" else None,
            "codec": None if codec is None else codec.info(),
        }
        if self.build_info:
            report.meta.setdefault("build", {}).update(self.build_info)
        return SystemReport(ids=ids, dists=dists, serve=report, traces=traces)
