#!/usr/bin/env bash
# CI test entry point: lint, tier-1 suite, paper shapes, perf smoke,
# chaos smoke.
#
#   scripts/test.sh            # everything
#   scripts/test.sh --tier1    # lint + unit/integration/property tests
#   scripts/test.sh --paper    # paper-shape tier: every figure/table/
#                              # ablation/extension test in benchmarks/
#                              # (not benchmarks/perf) at
#                              # REPRO_BENCH_SCALE=small with timing off
#                              # (~70 s on 2 cores) — keeps the paper's
#                              # qualitative claims (who wins, by how much,
#                              # where crossovers fall) under CI
#   scripts/test.sh --perf     # perf smoke only: search gate (~2 s; fails
#                              # if the vectorized backend loses to the
#                              # scalar one on wall clock) + build gate
#                              # (~40 s; vectorized NSW build must beat
#                              # scalar by >=3x at n=20k and hold recall@10
#                              # within 0.01) + quantized gate (~15 s; int8
#                              # traversal must beat float32 by >=1.5x
#                              # simulated GPU latency AND >=1.0x host wall
#                              # clock on a dim=960 corpus with recall@16
#                              # within 0.02 — docs/performance.md) + load
#                              # gate (~5 s; a 2-replica fleet fed an
#                              # open-loop Poisson stream at half capacity
#                              # must keep p99 e2e within 20x the unloaded
#                              # mean service time and answer >=99% of
#                              # queries — docs/load_testing.md) + hybrid
#                              # gate (~30 s; at 3x memory oversubscription
#                              # the pilot+CPU-refine tier must be >=3x
#                              # faster simulated than the UM-spill
#                              # baseline at recall@10 within 0.02 and beat
#                              # a host-only greedy loop on wall clock —
#                              # docs/performance.md)
#   scripts/test.sh --chaos    # chaos smoke only: (a) serve under the fixed
#                              # "smoke" fault plan (1 of 4 shards killed,
#                              # slots hung/corrupted, PCIe stalled) and
#                              # require >=99% of queries answered with no
#                              # deadlock; (b) serve-while-update under the
#                              # "update-storm" plan (5k-insert + 1k-delete
#                              # burst mid-serve, compaction barrier
#                              # stretched 6x) and require >=99% answered,
#                              # recall@16 within 0.02 of the frozen-graph
#                              # oracle, and zero tombstoned or duplicated
#                              # answers (docs/robustness.md)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_tier1=1
run_paper=1
run_perf=1
run_chaos=1
case "${1:-}" in
  --tier1) run_paper=0; run_perf=0; run_chaos=0 ;;
  --paper) run_tier1=0; run_perf=0; run_chaos=0 ;;
  --perf) run_tier1=0; run_paper=0; run_chaos=0 ;;
  --chaos) run_tier1=0; run_paper=0; run_perf=0 ;;
esac

# Per-test watchdog: the resilience suite exercises hang/deadlock recovery,
# so a regression there can wedge the whole run.  pytest-timeout is
# optional (the container image does not ship it) — gate on availability,
# same pattern as ruff above.
PYTEST_TIMEOUT_ARGS=()
if python -c "import pytest_timeout" >/dev/null 2>&1; then
  PYTEST_TIMEOUT_ARGS=(--timeout=300 --timeout-method=thread)
else
  echo "pytest-timeout not installed; running without per-test watchdog"
fi

if [ "$run_tier1" = 1 ]; then
  # Lint first (config in pyproject [tool.ruff]); skip when ruff is not
  # available — the container image does not ship it.
  if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
  elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check src tests benchmarks
  else
    echo "ruff not installed; skipping lint step"
  fi
  # Fan the suite across cores when pytest-xdist is available (optional,
  # like pytest-timeout above); fall back to the serial run otherwise.
  # -x is dropped under xdist: fail-fast and parallel dispatch interact
  # badly (workers keep finishing tests already in flight).
  PYTEST_DIST_ARGS=()
  if python -c "import xdist" >/dev/null 2>&1; then
    PYTEST_DIST_ARGS=(-n auto)
    echo "pytest-xdist available: running tier-1 with -n auto"
    python -m pytest -q "${PYTEST_DIST_ARGS[@]}" \
      ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
  else
    echo "pytest-xdist not installed; running tier-1 serially"
    python -m pytest -x -q ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
  fi
  # Optional extra: the compiled-backend job.  numba is an optional
  # dependency the container image does not ship (resolve_backend degrades
  # "compiled" requests to "vectorized" with a warning).  The jit-tier
  # tests guard themselves with pytest.importorskip("numba"), so in the
  # sweep above they skip *silently* on bare images — probe for numba and,
  # when it imports, run the jit tier as its own visible job so a broken
  # JIT path fails CI instead of hiding behind a skip (-rs surfaces any
  # skip that still happens, e.g. a numba/llvmlite version mismatch).
  if python -c "import numba" >/dev/null 2>&1; then
    echo "numba available: exercising the compiled-backend jit tier"
    python -m pytest tests/test_compiled_backend.py -q -rs -k "jitted" \
      ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
  else
    echo "numba not installed; compiled-backend suite covers fallback only"
  fi
fi
if [ "$run_paper" = 1 ]; then
  REPRO_BENCH_SCALE=small python -m pytest benchmarks -q \
    --ignore=benchmarks/perf --benchmark-disable \
    ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
fi
if [ "$run_perf" = 1 ]; then
  python -m pytest benchmarks/perf -m perf_smoke -q \
    ${PYTEST_TIMEOUT_ARGS[@]+"${PYTEST_TIMEOUT_ARGS[@]}"}
fi
if [ "$run_chaos" = 1 ]; then
  timeout 300 python -m repro chaos --plan smoke --mode sharded --gpus 4 \
    --n 2000 --queries 64 --batch 8 --k 8 --degree 12 --seed 0 \
    --min-completion 0.99
  # Update-storm smoke: streaming insert/delete churn under the
  # "update-storm" chaos plan (burst at t=30ms, compaction stall 6x).
  # 256 events at 3000 qps give an ~85 ms traffic horizon, so the storm
  # lands mid-serve.  Exit status enforces the degradation SLOs:
  # >=99% answered, recall@16 within 0.02 of the frozen-graph oracle,
  # zero tombstoned answers / duplicate rows / lost queries.
  timeout 300 python -m repro stream --plan update-storm \
    --n 6000 --queries 96 --events 256 --workload poisson:3000 \
    --insert-qps 3000 --delete-qps 1000 --k 16 --seed 1 \
    --min-answered 0.99 --max-recall-drop 0.02
fi
