"""Which library entry points a traced run wraps, and what it reads off them.

Every hook wraps one public function or method of a layer with a span
or a counter. Nothing in ``src/`` changes: the wrappers are installed for
one traced serve and removed afterwards. A hook whose target no longer
exists is skipped, and the metrics it feeds are reported as absent.

Per-layer host times are self times (``spans.self_seconds_by_name``);
simulated quantities are read off the serve report or counted at the
cost model and the PCIe link.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .spans import (
    NULL,
    Patcher,
    Recorder,
    activate,
    self_seconds_by_name,
    traced_task,
)

PHASES = ("select_us", "fetch_us", "filter_us", "distance_us", "sort_us",
          "result_write_us")

SEARCH_COUNTS = ("search.trace_steps", "search.distances", "search.sorts",
                 "search.steps_p99")


# ------------------------------------------------------------- wrappers
def _timed(rec: Recorder, name: str, count=None):
    """Span ``name`` around each call; ``count(rec, args, result)`` then
    records counters outside the span."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(token)
            if count is not None:
                count(rec, args, out)
            return out

        return wrapper

    return make


def _query_ctas(out):
    """Per-query CTA traces from any search entry point's return value:
    a list of SearchResult, or DynamicGraph's ``(ids, dists, traces)``."""
    traces = out[2] if isinstance(out, tuple) else [r.trace for r in out]
    for tr in traces:
        if tr is not None:
            yield getattr(tr, "ctas", [tr])


def _count_search(rec: Recorder, out) -> None:
    with rec.span("bench.count"):
        try:
            for ctas in _query_ctas(out):
                steps = [len(c.steps) for c in ctas]
                rec.count("search.trace_steps", sum(steps))
                rec.count("search.distances", sum(c.n_distances for c in ctas))
                rec.count("search.sorts", sum(c.n_sorts for c in ctas))
                rec.sample("search.query_steps", max(steps, default=0))
        except (AttributeError, TypeError, IndexError):
            rec.count("absent.search_counts")


def _search(rec: Recorder):
    """Span "search" around a search entry point; its traces are counted
    after the outermost one returns."""
    depth = [0]

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            token = rec.open("search")
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(token)
                depth[0] -= 1
            if depth[0] == 0:
                _count_search(rec, out)
            return out

        return wrapper

    return make


def _phases(rec: Recorder):
    """Accumulate the per-phase simulated cost of every priced CTA."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cost = fn(*args, **kwargs)
            for p in PHASES:
                rec.count(f"gpusim.{p}", getattr(cost, p))
            return cost

        return wrapper

    return make


def _pcie(rec: Recorder):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(self, now, nbytes, *args, **kwargs):
            rec.count("gpusim.pcie_bytes", nbytes)
            rec.count("gpusim.pcie_transactions")
            tag = kwargs.get("tag", args[0] if args else None)
            if tag == "candidates":
                rec.count("hybrid.candidate_bytes", nbytes)
            return fn(self, now, nbytes, *args, **kwargs)

        return wrapper

    return make


def _pool_init(rec: Recorder):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            with rec.span("parallel.pool"):
                fn(self, *args, **kwargs)
            if getattr(self, "mode", "sequential") != "sequential":
                rec.count("parallel.pools_created")

        return wrapper

    return make


def _pool_map(rec: Recorder):
    """Span the parent's map; in a process pool, run each task through
    :func:`traced_task` so the workers' spans come back with the results."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(self, task, items):
            if not getattr(self, "is_process", False):
                with rec.span("parallel.map"):
                    return fn(self, task, items)
            t0 = time.perf_counter()
            with rec.span("parallel.map") as sid:
                shipped = fn(self, functools.partial(traced_task, task, sid),
                             items)
            rec.count("parallel.worker_seconds",
                      self.n_workers * (time.perf_counter() - t0))
            with rec.span("bench.count"):
                results = []
                for result, recorded in shipped:
                    rec.merge(*recorded)
                    results.append(result)
            return results

        return wrapper

    return make


def _count_inserted(rec, args, out):
    rec.count("graphs.inserted", len(out))


def _count_compaction(rec, args, out):
    rec.count("graphs.compactions")


def _count_refine(rec, args, out):
    try:
        rec.count("hybrid.refine_distances", float(np.sum(out.n_distances)))
    except AttributeError:
        rec.count("absent.refine_counts")


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    make: object  # (rec) -> (fn -> wrapper)
    feeds: tuple[str, ...]


HOOKS = (
    Hook("repro.search.batched", "batched_multi_cta_search", _search,
         ("search.s",) + SEARCH_COUNTS),
    Hook("repro.search.batched", "batched_intra_cta_search", _search,
         ("search.s",) + SEARCH_COUNTS),
    Hook("repro.graphs.dynamic", "DynamicGraph.search_batch", _search,
         ("search.s",) + SEARCH_COUNTS),
    Hook("repro.gpusim.costmodel", "CostModel.cta_duration_us",
         lambda rec: _timed(rec, "gpusim.price"), ("gpusim.price_s",)),
    Hook("repro.gpusim.costmodel", "CostModel.cta_cost", _phases,
         tuple(f"gpusim.{p}" for p in PHASES)),
    Hook("repro.gpusim.pcie", "PCIeLink.transfer", _pcie,
         ("gpusim.pcie_bytes", "gpusim.pcie_transactions",
          "hybrid.candidate_bytes")),
    Hook("repro.core.dynamic_batcher", "DynamicBatchEngine.serve",
         lambda rec: _timed(rec, "core.engine"), ("core.engine_s",)),
    Hook("repro.parallel.pool", "WorkerPool.__init__", _pool_init,
         ("parallel.pool_create_s", "parallel.pools_created")),
    Hook("repro.parallel.pool", "WorkerPool.close",
         lambda rec: _timed(rec, "parallel.pool"),
         ("parallel.pool_create_s",)),
    Hook("repro.parallel.pool", "WorkerPool.map", _pool_map,
         ("parallel.map_s", "parallel.result_bytes", "parallel.efficiency")),
    Hook("repro.core.cluster", "ShardedServer._merge_all",
         lambda rec: _timed(rec, "cluster.merge"), ("cluster.merge_s",)),
    Hook("repro.core.cluster", "ShardedServer._merge_quorum",
         lambda rec: _timed(rec, "cluster.merge"), ("cluster.merge_s",)),
    Hook("repro.graphs.dynamic", "DynamicGraph.insert_batch",
         lambda rec: _timed(rec, "graphs.insert", _count_inserted),
         ("graphs.insert_s", "graphs.inserted")),
    Hook("repro.graphs.dynamic", "DynamicGraph.compact",
         lambda rec: _timed(rec, "graphs.compact", _count_compaction),
         ("graphs.compact_s", "graphs.compactions")),
    Hook("repro.streaming.runner", "exact_knn",
         lambda rec: _timed(rec, "streaming.gt"), ("streaming.gt_s",)),
    Hook("repro.hybrid.system", "HybridSystem.hybrid_search_all",
         lambda rec: _timed(rec, "hybrid.search"),
         ("hybrid.pilot_search_s",)),
    Hook("repro.hybrid.system", "bounded_refine",
         lambda rec: _timed(rec, "hybrid.refine", _count_refine),
         ("hybrid.refine_s", "hybrid.refine_distances")),
    Hook("repro.hybrid.system", "build_pilot",
         lambda rec: _timed(rec, "hybrid.pilot_build"),
         ("hybrid.pilot_build_s",)),
)


class Tracer:
    """Installs every hook around one traced phase and removes them after.

    Use as a context manager; ``recorder`` holds what the phase recorded
    and ``absent`` the metrics whose entry point could not be wrapped.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.recorder = Recorder()
        self.absent: set[str] = set()
        self._patcher: Patcher | None = None

    def __enter__(self) -> Recorder:
        self.recorder.reset()
        self._patcher = Patcher()
        for h in self.hooks:
            if not self._patcher.wrap(h.module, h.attr, h.make(self.recorder)):
                self.absent.update(h.feeds)
        activate(self.recorder)
        return self.recorder

    def __exit__(self, *exc) -> None:
        activate(NULL)
        self._patcher.restore()
        self._patcher = None


# -------------------------------------------------------------- metrics
def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _inclusive_under(spans, name: str, ancestor: str) -> float:
    """Summed duration of outermost ``name`` spans below an ``ancestor`` span."""
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in (name, ancestor):
            p = by_id.get(p.parent)
        if p is not None and p.name == ancestor:
            total += s.duration
    return total


def setup_metrics(rec: Recorder) -> dict[str, float]:
    own = self_seconds_by_name(rec.spans)
    return {
        "data.load_s": own.get("data.load", 0.0),
        "graphs.build_s": own.get("graphs.build", 0.0),
        "hybrid.pilot_build_s": own.get("hybrid.pilot_build", 0.0),
    }


def serve_metrics(rec: Recorder, outcome) -> dict[str, float]:
    """Per-layer metrics of one traced serve."""
    spans, c = rec.spans, rec.counters
    own = self_seconds_by_name(spans)
    inclusive: dict[str, float] = {}
    for s in spans:
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
    rep = outcome.serve
    recs = rep.records
    waits = [r.dispatch_us - r.arrival_us for r in recs]
    n = max(outcome.n_offered, 1)
    update = rep.meta.get("update") or {}
    m = {
        "graphs.insert_s": own.get("graphs.insert", 0.0),
        "graphs.inserted": c.get("graphs.inserted", 0.0),
        "graphs.compact_s": own.get("graphs.compact", 0.0),
        "graphs.compactions": c.get("graphs.compactions", 0.0),
        "graphs.update_busy_sim_us": float(update.get("update_busy_us", 0.0)),
        "search.s": own.get("search", 0.0),
        "gpusim.price_s": own.get("gpusim.price", 0.0),
        "gpusim.cta_busy_us": float(rep.gpu_cta_busy_us),
        "gpusim.utilization": float(rep.gpu_utilization),
        "gpusim.pcie_bytes": c.get("gpusim.pcie_bytes", 0.0),
        "gpusim.pcie_transactions": c.get("gpusim.pcie_transactions", 0.0),
        "core.engine_s": own.get("core.engine", 0.0),
        "core.queue_wait_p50_us": _pct(waits, 50),
        "core.queue_wait_p99_us": _pct(waits, 99),
        "core.host_busy_us": float(rep.host_busy_us),
        "core.bubble_mean_us": float(rep.mean_bubble_us),
        "core.retries": float(sum(r.retries for r in recs)),
        "core.dropped": float(rep.meta.get("dropped", 0)),
        "core.failed": float(outcome.n_failed),
        "parallel.pool_create_s": own.get("parallel.pool", 0.0),
        "parallel.pools_created": c.get("parallel.pools_created", 0.0),
        "parallel.map_s": inclusive.get("parallel.map", 0.0),
        "parallel.result_bytes": c.get("parallel.result_bytes", 0.0),
        "parallel.efficiency": (
            inclusive.get("parallel.leg", 0.0) / c["parallel.worker_seconds"]
            if c.get("parallel.worker_seconds") else 0.0
        ),
        "cluster.merge_s": own.get("cluster.merge", 0.0),
        "streaming.epochs": float(rep.meta.get("n_epochs", 0)),
        "streaming.gt_s": own.get("streaming.gt", 0.0),
        "hybrid.pilot_search_s": _inclusive_under(spans, "search",
                                                  "hybrid.search"),
        "hybrid.refine_s": own.get("hybrid.refine", 0.0),
        "hybrid.refine_distances": c.get("hybrid.refine_distances", 0.0),
        "hybrid.candidate_bytes": c.get("hybrid.candidate_bytes", 0.0),
    }
    for p in PHASES:
        m[f"gpusim.{p}"] = c.get(f"gpusim.{p}", 0.0) / n
    if not c.get("absent.search_counts"):
        m["search.trace_steps"] = c.get("search.trace_steps", 0.0)
        m["search.distances"] = c.get("search.distances", 0.0)
        m["search.sorts"] = c.get("search.sorts", 0.0)
        m["search.steps_p99"] = _pct(rec.samples.get("search.query_steps", []),
                                     99)
    if c.get("absent.refine_counts"):
        del m["hybrid.refine_distances"]
    return m
