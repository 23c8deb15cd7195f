"""Output checks: a run whose outputs break any of these is not correct."""

from __future__ import annotations

from collections import Counter

from .workloads import Outcome

#: simulated timeline order every answered query must respect
TIMELINE = ("arrival_us", "dispatch_us", "gpu_start_us", "gpu_end_us",
            "detected_us", "complete_us")


def check_outcome(out: Outcome, recall_floor: float) -> list[str]:
    """Every violation found in one serve's outputs (empty when correct)."""
    errors: list[str] = []
    if not out.recall >= recall_floor:
        errors.append(f"recall {out.recall:.4f} below floor {recall_floor}")

    # Every offered query is answered, dropped or failed exactly once.
    meta = out.serve.meta
    answered = [r.query_id for r in out.serve.records]
    unanswered = [
        *meta.get("dropped_ids", []),
        *meta.get("shed_ids", []),
        *meta.get("failed_ids", []),
    ]
    seen = Counter(answered + list(unanswered))
    repeated = sorted(q for q, c in seen.items() if c > 1)
    if repeated:
        errors.append(f"{len(repeated)} queries accounted more than once, "
                      f"e.g. {repeated[:5]}")
    offered = set(out.offered)
    unknown = sorted(set(seen) - offered)
    if unknown:
        errors.append(f"{len(unknown)} answers to queries never offered")
    missing = offered - set(seen)
    if missing:
        errors.append(f"{len(missing)} offered queries neither answered, "
                      f"dropped nor failed")

    if out.ids is not None:
        dup_rows = 0
        for row in out.ids:
            row = row[row >= 0]
            dup_rows += int(row.size != len(set(row.tolist())))
        if dup_rows:
            errors.append(f"{dup_rows} result rows repeat an id")

    bad_order = bad_latency = 0
    for r in out.serve.records:
        times = [getattr(r, f) for f in TIMELINE]
        bad_order += int(any(a > b for a, b in zip(times, times[1:])))
        bad_latency += int(r.e2e_latency_us < r.service_latency_us)
    if bad_order:
        errors.append(f"{bad_order} records break arrival <= dispatch <= "
                      f"gpu_start <= gpu_end <= detected <= complete")
    if bad_latency:
        errors.append(f"{bad_latency} records with e2e < service latency")

    for name, value in out.integrity.items():
        if value:
            errors.append(f"{name} = {value}, expected 0")
    return errors
