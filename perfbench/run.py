#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and report its metrics.

    python3 perfbench/run.py --workload sift-closed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. With ``--trace 0`` it prints every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record of the run (provenance, samples, spans) goes under
``.perfbench_out/runs/``. The exit code is 0 only when every output
check passed. ``--workload all`` runs every workload, each in a process
of its own, and prints their metrics under ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out" / "runs"

#: BLAS threads per process. gist-sharded-open runs two worker processes
#: on a two-core host, so one thread each keeps the total within nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process multiprocessing starts to
    track the shared-memory segments of the sharded workload."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _units(spec: dict, trace: bool) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def _print_run(name: str, res: dict, units: dict[str, str]) -> None:
    prov = res["provenance"]
    print(f"== {name}  seed={prov['seed']}  trace={int(prov['trace'])}  "
          f"commit={prov['commit']}  nproc={prov['nproc']}  "
          f"blas={prov['blas']['name']}x{prov['blas_threads_per_process']}")
    s = res["samples"]
    print(f"   set-ups={len(s['setup_s'])}  serves={s['serves']}  "
          f"answered/serve={s['answered_per_serve']} "
          f"(p99 rests on the slowest {max(1, s['answered_per_serve'] // 100)})")
    for metric, unit in units.items():
        value = res["metrics"].get(metric)
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"   {metric:<28} {shown:>14} {unit}")
    for err in res["errors"]:
        print(f"   CHECK FAILED: {err}")


def _run_all(args, spec: dict) -> int:
    """Run every workload in a process of its own, as a single-workload
    run would, and combine their results; metric names get the workload
    as a prefix."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", wl["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"   {wl['name']}: no result (exit code {proc.returncode})")
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{wl['name']}.{metric}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program source under {ROOT / 'src'}")
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return _run_all(args, spec)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.bench import measure, provenance, write_run
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)} or all")
    trace = bool(args.trace)
    try:
        res = measure(wl, args.seed, args.seconds, trace)
    finally:
        _stop_resource_tracker()
    res["provenance"] = provenance(ROOT, wl, args.seed, args.seconds, trace,
                                   BLAS_THREADS)
    write_run(OUT_DIR, res)
    units = _units(spec, trace)
    _print_run(wl.name, res, units)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: {"value": res["metrics"][m], "unit": u}
                    for m, u in units.items() if m in res["metrics"]},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
