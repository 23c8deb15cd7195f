#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py PARENT_RUNS CHANGE_RUNS

Each argument is a directory (searched recursively) or a file of run
records as ``run.py`` writes them under ``.perfbench_out/runs/``. Only
untraced runs count. For every workload and end-to-end metric of
``BENCHMARK.json`` it prints both sides' medians and quartiles, the
metric's bound and a verdict:

``better``
    the change wins at least nine pairs in ten (pairs match seeds; ties
    count for neither side) and the medians differ by more than the
    spread between the parent's own runs;
``worse``
    the change's median is worse than the parent's by more than the bound;
``unresolved``
    fewer than ten seeds have a run on both sides, or one side's quartile
    spread, as a share of its median, exceeds the bound, so the runs
    cannot tell a change of that size from noise (unless every change run
    beats every parent run, which is ``better``);
``within bound``
    anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BETTER, WORSE, UNRESOLVED, WITHIN = ("better", "worse", "unresolved",
                                     "within bound")
MIN_WIN_SHARE = 0.9
#: seed-matched pairs needed before any verdict but ``unresolved``
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, pairs: list[tuple[float, float]]) -> str:
    """Classify ``change`` against ``parent`` for one metric.

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` the share of the
    parent's median by which the metric may worsen; ``pairs`` the
    (parent, change) values of runs at equal seeds.
    """
    if not parent or not change:
        raise ValueError("need at least one run on each side")
    if len(pairs) < MIN_PAIRS:
        return UNRESOLVED
    sign = 1.0 if better == "lower" else -1.0
    wins = lambda a, b: sign * (b - a) < 0  # noqa: E731 - b beats a
    q1a, med_a, q3a = quartiles(parent)
    _, med_b, _ = quartiles(change)
    scale = abs(med_a) if med_a else 1.0
    worse_by = sign * (med_b - med_a) / scale

    if max(_spread(parent), _spread(change)) > bound:
        every = all(wins(a, b) for a in parent for b in change)
        return BETTER if every else UNRESOLVED
    if worse_by > bound:
        return WORSE
    won = sum(wins(a, b) for a, b in pairs)
    if (worse_by < 0 and won >= MIN_WIN_SHARE * len(pairs)
            and abs(med_b - med_a) > q3a - q1a):
        return BETTER
    return WITHIN


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        doc = json.loads(f.read_text())
        if "provenance" in doc and not doc["provenance"]["trace"]:
            runs.append(doc)
    return runs


def _by_workload(runs: list[dict]) -> dict[str, dict[int, dict]]:
    """Runs by workload and seed; two runs of one workload at one seed
    are an error, since only one of them could be paired."""
    out: dict[str, dict[int, dict]] = {}
    for r in runs:
        prov = r["provenance"]
        name, seed = prov["workload"]["name"], prov["seed"]
        seeds = out.setdefault(name, {})
        if seed in seeds:
            raise ValueError(f"two runs of {name} at seed {seed}")
        seeds[seed] = r
    return out


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    rows = []
    a_runs, b_runs = _by_workload(parent), _by_workload(change)
    for wl in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[wl], b_runs[wl]
        seeds = sorted(set(a) & set(b))
        for m in spec["end_to_end"]:
            name = m["name"]
            av = [r["metrics"][name] for r in a.values() if name in r["metrics"]]
            bv = [r["metrics"][name] for r in b.values() if name in r["metrics"]]
            if not av or not bv:
                continue
            pairs = [(a[s]["metrics"][name], b[s]["metrics"][name])
                     for s in seeds]
            rows.append({
                "workload": wl, "metric": name, "unit": m["unit"],
                "bound": m["bound"], "n": (len(av), len(bv)),
                "pairs": len(pairs),
                "parent": quartiles(av), "change": quartiles(bv),
                "verdict": verdict(av, bv, m["better"], m["bound"], pairs),
            })
    return rows


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<20} {'metric':<20} {'parent Q1/med/Q3':>30} "
          f"{'change Q1/med/Q3':>30} {'bound':>6}  verdict")
    for r in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"{r['workload']:<20} {r['metric']:<20} {fmt(r['parent']):>30} "
              f"{fmt(r['change']):>30} {r['bound']:>6}  {r['verdict']}"
              f"  [{r['unit']}, runs {r['n'][0]}/{r['n'][1]}, "
              f"pairs {r['pairs']}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
