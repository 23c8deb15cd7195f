"""Per-figure experiment definitions (evaluation: Figs. 10–18, Table I,
headline claims, motivation waste rate, and the DESIGN.md ablations).

Every function returns ``(text, data)``: ``text`` mirrors the paper's
rows/series, ``data`` is asserted on by the benchmark suite.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import format_series, format_table
from ..analysis.stats import bubble_waste_rate, sort_time_fraction
from ..core.persistent_kernel import PersistentKernel
from ..core.serving import QueryJob
from ..data import recall as recall_of
from .runner import (
    BENCH_DATASETS,
    cached_search,
    get_dataset,
    make_system,
    scheduled_report,
    serve_ivf,
    serve_system,
)

__all__ = [
    "fig10_11_data",
    "fig12_data",
    "fig13_data",
    "fig14_15_data",
    "fig16_data",
    "fig17_data",
    "fig18_data",
    "table1_data",
    "headline_data",
    "bubble_data",
    "ablation_persistent_kernel",
    "ablation_merge",
    "ablation_tuning",
    "ablation_beam_params",
]

_K = 16
_L = 128
_BATCH = 16


def _row(report, ds, k=_K):
    rec = recall_of(report.ids[:, :k], ds.gt_at(k))
    return rec, report.mean_latency_us, report.throughput_qps


def fig10_11_data(datasets=BENCH_DATASETS):
    """Figs. 10 & 11 — latency/throughput per {graph × method} + IVF.

    Batch 16, TopK 16, candidate list 128 (recall reported per row, as the
    red labels in the paper's figures).
    """
    rows = []
    data: dict[tuple, tuple] = {}
    for name in datasets:
        ds = get_dataset(name)
        for graph in ("cagra", "nsw"):
            for method in ("algas", "cagra", "ganns"):
                rep, _ = serve_system(
                    method, name, graph, k=_K, l_total=_L, batch_size=_BATCH
                )
                rec, lat, qps = _row(rep, ds)
                rows.append((name, f"{graph.upper()}-{method.upper()}", rec, lat, qps))
                data[(name, graph, method)] = (rec, lat, qps)
        # IVF: pick nprobe reaching (about) the ALGAS recall level.
        target = data[(name, "cagra", "algas")][0]
        best = None
        for nprobe in (1, 2, 4, 8, 16, 32, 64):
            rep = serve_ivf(name, nprobe=nprobe, k=_K, batch_size=_BATCH)
            rec, lat, qps = _row(rep, ds)
            best = (rec, lat, qps, nprobe)
            if rec >= target:
                break
        rows.append((name, f"IVF(np={best[3]})", best[0], best[1], best[2]))
        data[(name, "ivf", "ivf")] = best[:3]
    text = format_table(
        ["dataset", "graph-method", "recall", "latency_us", "qps"],
        [(a, b, f"{r:.3f}", lat, qps) for a, b, r, lat, qps in rows],
        title=f"Fig.10/11 — batch={_BATCH}, TopK={_K}, L={_L}",
    )
    return text, data


def fig12_data(dataset: str = "sift1m-mini", topks=(16, 32, 64, 128)):
    """Fig. 12 — latency vs TopK (recall labels per point)."""
    ds = get_dataset(dataset)
    rows = []
    data = {}
    for method in ("algas", "cagra"):
        for topk in topks:
            l_total = max(_L, 2 * topk)
            rep, _ = serve_system(
                method, dataset, "cagra", k=topk, l_total=l_total, batch_size=_BATCH
            )
            rec = recall_of(rep.ids[:, :topk], ds.gt_at(topk))
            rows.append((method.upper(), topk, f"{rec:.3f}", rep.mean_latency_us))
            data[(method, topk)] = (rec, rep.mean_latency_us)
    text = format_table(
        ["method", "TopK", "recall", "latency_us"],
        rows,
        title=f"Fig.12 — {dataset}, latency vs TopK (batch={_BATCH})",
    )
    return text, data


def fig13_data(dataset: str = "sift1m-mini"):
    """Fig. 13 — sorted per-query latency: static vs dynamic batching.

    Controlled comparison: the *same* multi-CTA search traces are scheduled
    through the dynamic engine (ALGAS) and the static engine (CAGRA-style
    batches), so every difference is the batching discipline.
    """
    algas = make_system("algas", dataset, "cagra", k=_K, l_total=_L, batch_size=_BATCH)
    ids, dists, traces = cached_search(algas, dataset, "cagra")
    from ..core.static_batcher import StaticBatchConfig, StaticBatchEngine
    from ..data.workload import closed_loop

    events = closed_loop(len(traces))
    jobs = algas.jobs_from_traces(traces, events)
    dyn = algas.make_engine().serve(jobs)
    static_cfg = StaticBatchConfig(
        batch_size=_BATCH,
        n_parallel=algas.n_parallel,
        k=_K,
        merge_on_gpu=True,
        mem_per_block=algas.mem_per_block(),
    )
    stat = StaticBatchEngine(algas.device, algas.cost_model, static_cfg).serve(jobs)
    dyn_sorted = dyn.sorted_latencies_us()
    stat_sorted = stat.sorted_latencies_us()
    qs = [0, 25, 50, 75, 90, 99]
    text = "\n".join(
        [
            f"Fig.13 — {dataset}: sorted query latency, dynamic vs static (batch={_BATCH})",
            format_series(
                "dynamic", [f"p{q}" for q in qs],
                [float(np.percentile(dyn_sorted, q)) for q in qs],
            ),
            format_series(
                "static ", [f"p{q}" for q in qs],
                [float(np.percentile(stat_sorted, q)) for q in qs],
            ),
        ]
    )
    return text, {"dynamic": dyn_sorted, "static": stat_sorted}


def fig14_15_data(
    datasets=("sift1m-mini", "glove200-mini"),
    batch_sizes=(1, 2, 4, 8, 16, 32, 64),
):
    """Figs. 14 & 15 — throughput/latency vs batch size, fixed recall.

    Traces are cached per search configuration, so the sweep re-schedules
    the same work under each batch size (the paper's methodology: fixed
    recall, vary batch).
    """
    rows = []
    data = {}
    for name in datasets:
        ds = get_dataset(name)
        for method in ("algas", "cagra", "ganns"):
            for b in batch_sizes:
                rep, _ = serve_system(
                    method, name, "cagra", k=_K, l_total=_L, batch_size=b
                )
                rec, lat, qps = _row(rep, ds)
                rows.append((name, method.upper(), b, lat, qps))
                data[(name, method, b)] = (rec, lat, qps)
    text = format_table(
        ["dataset", "method", "batch", "latency_us", "qps"],
        rows,
        title="Fig.14/15 — throughput & latency vs batch size",
    )
    return text, data


def fig16_data(
    datasets=BENCH_DATASETS,
    l_values=(128, 256, 512, 768),
    n_ctas: int = 8,
):
    """Fig. 16 — beam extend vs greedy extend (8 CTAs): recall vs QPS."""
    rows = []
    data = {}
    for name in datasets:
        ds = get_dataset(name)
        for variant, beam in (("greedy-extend", False), ("beam-extend", True)):
            for l_total in l_values:
                rep, _ = serve_system(
                    "algas", name, "cagra",
                    k=_K, l_total=l_total, batch_size=_BATCH,
                    beam=beam, n_parallel=n_ctas,
                )
                rec, lat, qps = _row(rep, ds)
                rows.append((name, variant, l_total, f"{rec:.3f}", lat, qps))
                data[(name, variant, l_total)] = (rec, lat, qps)
    text = format_table(
        ["dataset", "variant", "L", "recall", "latency_us", "qps"],
        rows,
        title=f"Fig.16 — beam vs greedy extend ({n_ctas} CTAs)",
    )
    return text, data


def fig17_data(datasets=BENCH_DATASETS, l_total: int = 384, n_ctas: int = 2):
    """Fig. 17 — sorting share before/after beam extend.

    Uses 2 CTAs per query (long per-CTA candidate lists) so the sorting
    share sits in the Fig. 3 regime the paper measures.
    """
    rows = []
    data = {}
    for name in datasets:
        fr = {}
        for variant, beam in (("greedy", False), ("beam", True)):
            system = make_system(
                "algas", name, "cagra",
                k=_K, l_total=l_total, batch_size=_BATCH,
                beam=beam, n_parallel=n_ctas,
            )
            _, _, traces = cached_search(system, name, "cagra")
            fr[variant] = sort_time_fraction(traces, system.cost_model)
        rows.append((name, 100 * fr["greedy"], 100 * fr["beam"]))
        data[name] = fr
    text = format_table(
        ["dataset", "sorting % (greedy)", "sorting % (beam)"],
        rows,
        title=f"Fig.17 — sorting share before/after beam extend (L={l_total})",
    )
    return text, data


def fig18_data(
    datasets=("sift1m-mini", "gist1m-mini"),
    thread_counts=(1, 2, 4),
    batch_size: int = 32,
):
    """Fig. 18 — host parallel processing and GDRCopy state mirrors.

    Larger slot count (32) stresses the host path, as in §V-B.  QPS is
    reported for each (threads × state-mode) combination.
    """
    rows = []
    data = {}
    for name in datasets:
        for mode in ("gdrcopy", "naive"):
            for ht in thread_counts:
                rep, _ = serve_system(
                    "algas", name, "cagra",
                    k=_K, l_total=_L, batch_size=batch_size,
                    host_threads=ht, state_mode=mode,
                )
                rows.append((name, mode, ht, rep.mean_latency_us, rep.throughput_qps))
                data[(name, mode, ht)] = (rep.mean_latency_us, rep.throughput_qps)
    text = format_table(
        ["dataset", "state mode", "host threads", "latency_us", "qps"],
        rows,
        title=f"Fig.18 — host threads × state sync (batch={batch_size})",
    )
    return text, data


def table1_data(dataset: str = "sift1m-mini"):
    """Table I — qualitative grid, quantified on one dataset."""
    ds = get_dataset(dataset)
    rows = []
    data = {}
    cases = [
        ("CAGRA", "single query", "cagra", 1),
        ("CAGRA", "large batch", "cagra", 64),
        ("ALGAS", "small batch", "algas", _BATCH),
        ("GANNS", "large batch", "ganns", 64),
    ]
    for sys_name, regime, method, batch in cases:
        rep, _ = serve_system(method, dataset, "cagra", k=_K, l_total=_L, batch_size=batch)
        rec, lat, qps = _row(rep, ds)
        rows.append((sys_name, regime, batch, lat, qps))
        data[(sys_name, regime)] = (lat, qps)
    text = format_table(
        ["system", "regime", "batch", "latency_us", "throughput_qps"],
        rows,
        title=f"Table I — {dataset}",
    )
    return text, data


def headline_data(datasets=BENCH_DATASETS):
    """§VI-A headline: ALGAS vs CAGRA — latency −21.9–35.4 %,
    throughput +27.8–55.2 % (paper's reported ranges)."""
    rows = []
    data = {}
    for name in datasets:
        a, _ = serve_system("algas", name, "cagra", k=_K, l_total=_L, batch_size=_BATCH)
        c, _ = serve_system("cagra", name, "cagra", k=_K, l_total=_L, batch_size=_BATCH)
        lat_red = 100 * (1 - a.mean_latency_us / c.mean_latency_us)
        qps_gain = 100 * (a.throughput_qps / c.throughput_qps - 1)
        rows.append((name, lat_red, qps_gain))
        data[name] = (lat_red, qps_gain)
    text = format_table(
        ["dataset", "latency reduction %", "throughput gain %"],
        rows,
        title=f"Headline — ALGAS vs CAGRA (batch={_BATCH})",
    )
    return text, data


def bubble_data(datasets=BENCH_DATASETS, batch_size: int = 32):
    """§III-A — waste rate of static batching (paper: 22.9–33.7 %)."""
    rows = []
    data = {}
    for name in datasets:
        rep, _ = serve_system(
            "cagra", name, "cagra", k=_K, l_total=_L, batch_size=batch_size
        )
        waste = bubble_waste_rate(rep.serve.records)
        rows.append((name, 100 * waste))
        data[name] = waste
    text = format_table(
        ["dataset", "waste rate %"],
        rows,
        title=f"Motivation — static-batch bubble waste (batch={batch_size})",
    )
    return text, data


# ------------------------------------------------------------------ ablations
def ablation_persistent_kernel(
    dataset: str = "sift1m-mini", steps_per_launch=(1, 4, 16, 64)
):
    """Persistent kernel vs partitioned kernel (§IV-A's rejected design)."""
    system = make_system("algas", dataset, "cagra", k=_K, l_total=_L, batch_size=_BATCH)
    _, _, traces = cached_search(system, dataset, "cagra")
    pk = PersistentKernel(system.device, system.tuning)
    # One slot's worth of CTAs at a time (the persistent kernel's unit).
    sample = traces.take_queries(np.arange(min(system.batch_size, len(traces))))
    steps_us = sum(system.cost_model.step_phases(sample)).tolist()
    bounds = sample.cta_offsets.tolist()
    per_block = [steps_us[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    persistent = pk.persistent_makespan(per_block)
    rows = [("persistent", "-", persistent, 0.0)]
    data = {"persistent": persistent}
    for spl in steps_per_launch:
        m = pk.partitioned_makespan(per_block, spl)
        rows.append(("partitioned", spl, m, 100 * (m / persistent - 1)))
        data[spl] = m
    text = format_table(
        ["kernel", "steps/launch", "makespan_us", "overhead %"],
        rows,
        title=f"Ablation — persistent vs partitioned kernel ({dataset})",
    )
    return text, data


def ablation_merge(dataset: str = "sift1m-mini"):
    """GPU–CPU cooperative merge vs on-GPU merge kernel (§IV-B)."""
    rows = []
    data = {}
    for label, on_cpu in (("cpu-merge (ALGAS)", True), ("gpu-merge", False)):
        rep, _ = serve_system(
            "algas", dataset, "cagra",
            k=_K, l_total=_L, batch_size=_BATCH, merge_on_cpu=on_cpu,
        )
        rows.append((label, rep.mean_latency_us, rep.throughput_qps))
        data[on_cpu] = (rep.mean_latency_us, rep.throughput_qps)
    text = format_table(
        ["merge", "latency_us", "qps"],
        rows,
        title=f"Ablation — TopK merge location ({dataset})",
    )
    return text, data


def ablation_tuning(dataset: str = "sift1m-mini", parallels=(1, 2, 4, 8)):
    """Adaptive N_parallel vs fixed values (§IV-C)."""
    ds = get_dataset(dataset)
    rows = []
    data = {}
    for np_ in parallels:
        rep, system = serve_system(
            "algas", dataset, "cagra",
            k=_K, l_total=_L, batch_size=_BATCH, n_parallel=np_,
        )
        rec, lat, qps = _row(rep, ds)
        rows.append((np_, f"{rec:.3f}", lat, qps))
        data[np_] = (rec, lat, qps)
    text = format_table(
        ["N_parallel", "recall", "latency_us", "qps"],
        rows,
        title=f"Ablation — CTAs per query ({dataset}, batch={_BATCH})",
    )
    return text, data


def ablation_beam_params(
    dataset: str = "sift1m-mini",
    offsets=(4, 8, 16, 32),
    widths=(2, 4, 8),
    l_total: int = 192,
    n_parallel: int = 2,
):
    """Sensitivity of beam extend to offset_beam and beam width.

    Uses 2 CTAs per query so each CTA keeps a long candidate list (the
    regime where the phase threshold matters).  The ``"off"`` row disables
    beam extend entirely (pure greedy control).
    """
    from ..search.intra_cta import BeamConfig

    ds = get_dataset(dataset)
    rows = []
    data = {}
    rep, _ = serve_system(
        "algas", dataset, "cagra",
        k=_K, l_total=l_total, batch_size=_BATCH, beam=False,
        n_parallel=n_parallel,
    )
    rec, lat, qps = _row(rep, ds)
    rows.append(("off", "-", f"{rec:.3f}", lat, qps))
    data["off"] = (rec, lat, qps)
    for off in offsets:
        for w in widths:
            rep, _ = serve_system(
                "algas", dataset, "cagra",
                k=_K, l_total=l_total, batch_size=_BATCH,
                beam=BeamConfig(offset_beam=off, beam_width=w),
                n_parallel=n_parallel,
            )
            rec, lat, qps = _row(rep, ds)
            rows.append((off, w, f"{rec:.3f}", lat, qps))
            data[(off, w)] = (rec, lat, qps)
    text = format_table(
        ["offset_beam", "beam_width", "recall", "latency_us", "qps"],
        rows,
        title=f"Ablation — beam parameters ({dataset}, L={l_total}, T={n_parallel})",
    )
    return text, data
