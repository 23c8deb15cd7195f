"""Cost-model calibration against measured timings.

Users with access to a real GPU can calibrate the simulator: run a few
search configurations on hardware, record (CTA trace, measured-microseconds)
pairs — the traces as the CTAs of one
:class:`~repro.gpusim.trace.TraceTable` — and fit the per-op cycle
constants so the priced traces match.

The model is linear in the five dominant cycle constants

    t(trace) ≈ Σ_ops  count_op(trace) · cycles_op / clock

so the fit is a non-negative least squares over the op-count matrix
(solved with projected ``numpy.linalg.lstsq`` — clip + refit, adequate for
this small well-conditioned system).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .costmodel import CostModel, CostParams, bitonic_groups
from .device import DeviceProperties
from .trace import TraceTable

__all__ = ["CalibrationResult", "op_count_features", "calibrate_cost_params"]

#: order of the fitted CostParams fields
_FIELDS = (
    "fma_iter_cycles",
    "shuffle_cycles",
    "cmpex_cycles",
    "scan_cycles",
    "bitmap_cycles",
)


def op_count_features(traces: TraceTable, threads: int = 32) -> np.ndarray:
    """Per-op *counts* (warp-wide groups), one row per CTA of ``traces``.

    Columns follow ``_FIELDS``; multiplying by the matching cycle constants
    and the cycle time reproduces the deterministic part of
    :meth:`CostModel.price` (memory terms are excluded — they are device
    properties, not fitted constants).
    """
    t = traces
    n_new = t.n_new_points
    fma = -(-(n_new * t.dim) // threads)
    shfl = n_new * max(1, int(math.log2(threads)))
    sort_groups, merge_groups = bitonic_groups(t.sort_size, t.cand_list_len, threads)
    cmpex = np.where(t.did_sort, sort_groups + merge_groups, 0)
    scan = -(-np.maximum(t.cand_list_len, 1) // threads) * t.n_expanded
    bitmap = -(-t.n_visited_checks // threads)
    ops = np.stack([fma, shfl, cmpex, scan, bitmap], axis=1)
    c = np.zeros((ops.shape[0] + 1, ops.shape[1]), dtype=np.int64)
    np.cumsum(ops, axis=0, out=c[1:])
    o = t.cta_offsets
    return (c[o[1:]] - c[o[:-1]]).astype(np.float64)


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted constants plus fit quality."""

    params: CostParams
    residual_us_rms: float
    r_squared: float


def calibrate_cost_params(
    device: DeviceProperties,
    traces: TraceTable,
    measured_us: list[float],
    base_params: CostParams | None = None,
    threads: int | None = None,
) -> CalibrationResult:
    """Fit per-op cycle constants to measured CTA timings.

    ``measured_us[i]`` is the observed execution time of CTA ``i`` of
    ``traces`` on real hardware.  Memory-latency/bandwidth terms (device properties) are
    subtracted before fitting; fitted constants are clipped non-negative
    with one refit pass over the surviving columns.
    """
    if traces.n_ctas != len(measured_us):
        raise ValueError("one measurement per trace required")
    if traces.n_ctas < len(_FIELDS):
        raise ValueError(f"need at least {len(_FIELDS)} measurements")
    base = base_params or CostParams()
    thr = threads or device.warp_size
    X = op_count_features(traces, thr)
    # fixed (non-fitted) component: memory + per-step overheads
    zeroed = replace(
        base,
        fma_iter_cycles=0.0, shuffle_cycles=0.0, cmpex_cycles=0.0,
        scan_cycles=0.0, bitmap_cycles=0.0,
    )
    fixed_model = CostModel(device, zeroed, threads_per_cta=thr)
    fixed = fixed_model.price(traces).total_us
    y = np.asarray(measured_us, dtype=np.float64) - fixed
    cycle_us = 1.0 / (device.clock_ghz * 1e3)
    A = X * cycle_us

    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    if (coef < 0).any():  # clip-and-refit non-negativity pass
        keep = coef > 0
        coef = np.zeros_like(coef)
        if keep.any():
            sub, *_ = np.linalg.lstsq(A[:, keep], y, rcond=None)
            coef[keep] = np.clip(sub, 0.0, None)
    fitted = replace(base, **dict(zip(_FIELDS, coef.tolist())))

    pred = A @ coef + fixed
    resid = np.asarray(measured_us) - pred
    ss_res = float((resid**2).sum())
    ss_tot = float(((np.asarray(measured_us) - np.mean(measured_us)) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return CalibrationResult(
        params=fitted,
        residual_us_rms=float(np.sqrt((resid**2).mean())),
        r_squared=r2,
    )
