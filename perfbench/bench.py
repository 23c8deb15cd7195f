"""Measure one workload: set-ups, timed serves, checks and metrics.

A run sets the workload up and serves it once, sets it up
``N_SETUPS - 1`` more times (``setup_s`` is the median), then keeps
serving until at least ``MIN_SERVES`` serves are done and ``seconds`` of
serving have been measured. With ``trace`` off, the end-to-end metrics
come from these serves, and peak memory is read after the first one.
With ``trace`` on, every untraced serve is followed by a traced one (at
least ``MIN_TRACED_PAIRS`` pairs), the per-layer metrics are medians over
the traced serves, and ``trace.overhead_s`` is the difference between the
two kinds of serve.
"""

from __future__ import annotations

import datetime
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

from .checks import check_outcome
from .layers import Tracer, serve_metrics, setup_metrics
from .spans import self_seconds_by_name
from .workloads import FIXTURE_SEED, QUERY_POOL, Outcome, Workload

N_SETUPS = 3
MIN_SERVES = 3
#: a traced run pairs every untraced serve with a traced one
MIN_TRACED_PAIRS = 2


def sim_metrics(out: Outcome) -> dict[str, float]:
    """Simulated-clock metrics and quality of one serve (seed-exact).

    ``sim_qps`` counts answered queries per simulated second from the
    first arrival to the last answer, so on ``sift-churn`` an update wave
    still running after the last query does not count as serving time.
    """
    rep = out.serve
    recs = rep.records
    span_us = (max(r.complete_us for r in recs)
               - min(r.arrival_us for r in recs))
    return {
        "sim_service_p50_us": rep.percentile_latency_us(50, "service"),
        "sim_service_p99_us": rep.percentile_latency_us(99, "service"),
        "sim_e2e_p50_us": rep.percentile_latency_us(50, "e2e"),
        "sim_e2e_p99_us": rep.percentile_latency_us(99, "e2e"),
        "sim_qps": len(recs) / (span_us * 1e-6),
        "recall_at_k": out.recall,
        "answered_frac": len(recs) / out.n_offered,
    }


def _descendants() -> list[int]:
    """Live descendant processes of this one, read from
    ``/proc/<pid>/task/*/children`` (Linux)."""
    out: list[int] = []
    todo = [os.getpid()]
    while todo:
        for task in Path(f"/proc/{todo.pop()}/task").glob("*/children"):
            try:
                kids = [int(k) for k in task.read_text().split()]
            except OSError:  # the task or process ended meanwhile
                continue
            out += kids
            todo += kids
    return out


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, its reaped children included."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields 14-17 (utime stime cutime cstime) follow the command in
    # parentheses, which may itself hold spaces.
    ticks = stat[stat.rindex(")") + 2:].split()[11:15]
    return sum(int(t) for t in ticks) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_kib(pid: int) -> int:
    """Peak resident memory (VmHWM) of a live process, in KiB."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def cpu_seconds() -> float:
    """Host CPU time used so far by this process and all its workers:
    the reaped ones through ``RUSAGE_CHILDREN``, the live ones (a pool
    kept open between serves) through ``/proc``."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(_proc_cpu_s(pid) for pid in _descendants())
    return (own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
            + live)


class WorkerPeak:
    """Largest summed peak resident memory of this process's descendants.

    The sum is read when the window closes and, inside it, just before
    every process pool shuts down, while its workers are still alive: the
    kernel keeps only the largest peak of the reaped ones. A worker's
    pages shared copy-on-write with the parent count in both.
    """

    def __init__(self) -> None:
        self.kib = 0

    def read(self) -> None:
        self.kib = max(self.kib, sum(_proc_hwm_kib(pid)
                                     for pid in _descendants()))

    def __enter__(self) -> "WorkerPeak":
        self._shutdown = ProcessPoolExecutor.shutdown
        original, watch = self._shutdown, self

        def shutdown(executor, *args, **kwargs):
            watch.read()
            return original(executor, *args, **kwargs)

        ProcessPoolExecutor.shutdown = shutdown
        return self

    def __exit__(self, *exc) -> None:
        ProcessPoolExecutor.shutdown = self._shutdown
        self.read()


def peak_rss_mb(workers: WorkerPeak) -> float:
    """Peak resident memory of this process plus the summed peaks of its
    workers (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + workers.kib) / 1024.0


def _median_by_key(rows: list[dict]) -> dict[str, float]:
    keys = {k for r in rows for k in r}
    return {k: statistics.median(r[k] for r in rows if k in r)
            for k in sorted(keys)}


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    p = wl.params
    setup_walls: list[float] = []
    setup_layers: list[dict] = []
    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    outcomes: list[Outcome] = []
    layer_runs: list[dict] = []
    absent: set[str] = set()
    last_spans: dict[str, list] = {}
    state = None

    def set_up() -> None:
        nonlocal state
        if state is not None:
            wl.close(state)
            state = None
        gc.collect()
        tracer = Tracer() if trace else None
        with tracer or nullcontext():
            t0 = time.perf_counter()
            state = wl.setup(p, seed)
            setup_walls.append(time.perf_counter() - t0)
        if tracer is not None:
            setup_layers.append(setup_metrics(tracer.recorder))
            absent.update(tracer.absent)
            last_spans["setup"] = tracer.recorder.spans

    def serve() -> None:
        prepared = wl.prepare(state, p)
        c0, t0 = cpu_seconds(), time.perf_counter()
        outcomes.append(wl.serve(state, prepared, p, seed))
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)

    def serve_traced() -> None:
        prepared = wl.prepare(state, p)
        tracer = Tracer()
        with tracer:
            t0 = time.perf_counter()
            out = wl.serve(state, prepared, p, seed)
            traced_walls.append(time.perf_counter() - t0)
        outcomes.append(out)
        layer_runs.append(serve_metrics(tracer.recorder, out))
        absent.update(tracer.absent)
        last_spans["serve"] = tracer.recorder.spans

    min_serves = MIN_TRACED_PAIRS if trace else MIN_SERVES
    try:
        set_up()
        with WorkerPeak() as workers:
            serve()
        # Read before the repeated set-ups: memory they free is sometimes
        # kept by the allocator and sometimes returned, which would make
        # the high-water mark of later serves jump by tens of MB.
        rss = peak_rss_mb(workers)
        for _ in range(N_SETUPS - 1):
            set_up()
        while True:
            if trace:
                serve_traced()
            if (len(walls) >= min_serves
                    and sum(walls) + sum(traced_walls) >= seconds):
                break
            serve()
    finally:
        if state is not None:
            wl.close(state)

    errors: list[str] = []
    for i, out in enumerate(outcomes):
        errors += [f"serve {i}: {e}" for e in check_outcome(out, wl.recall_floor)]
    sims = [sim_metrics(o) for o in outcomes]
    if any(s != sims[0] for s in sims[1:]):
        errors.append("simulated metrics differ between serves at one seed")

    first = outcomes[0]
    if trace:
        metrics = _median_by_key(setup_layers)
        metrics.update(_median_by_key(layer_runs))
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        for name in absent:
            metrics.pop(name, None)
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "serve_wall_s": statistics.median(walls),
            "serve_cpu_s": statistics.median(cpus),
            "peak_rss_mb": rss,
            **sims[0],
        }
    return {
        "metrics": metrics,
        "correct": not errors,
        "errors": errors,
        "attempted": sum(o.n_offered for o in outcomes),
        "failed": sum(o.n_failed for o in outcomes),
        "absent": sorted(absent),
        "samples": {
            "setup_s": setup_walls,
            "serve_wall_s": walls,
            "serve_cpu_s": cpus,
            "traced_serve_wall_s": traced_walls,
            "answered_per_serve": len(first.serve.records),
            "serves": len(walls),
        },
        "layer_self_s": {k: self_seconds_by_name(v)
                         for k, v in last_spans.items()},
        "spans": {k: [list(s) for s in v] for k, v in last_spans.items()},
    }


# ------------------------------------------------------------ provenance
def _git(root: Path) -> tuple[str | None, bool | None]:
    """Commit and dirty flag, when the tree is a git checkout."""
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None, None
    try:
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head, bool(status.strip())


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def provenance(root: Path, wl: Workload, seed: int, seconds: float,
               trace: bool, blas_threads: int) -> dict:
    commit, dirty = _git(root)
    return {
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads_per_process": blas_threads,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": {"name": wl.name, "fixture_seed": FIXTURE_SEED,
                     "query_pool": QUERY_POOL, **wl.params},
        "n_setups": N_SETUPS,
        "min_serves": MIN_TRACED_PAIRS if trace else MIN_SERVES,
    }


def write_run(out_dir: Path, doc: dict) -> Path:
    """Write one run's full record (the comparison tool's input)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = doc["provenance"]
    stamp = prov["timestamp"].replace(":", "").replace("-", "")[:15]
    path = out_dir / (f"{prov['workload']['name']}-s{prov['seed']}-"
                      f"t{int(prov['trace'])}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
